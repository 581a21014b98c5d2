package dmt

// Wait queues, fast-path edition. Parrot's wait() moves the caller onto a
// per-key FIFO; the original implementation kept a map[any][]*Thread, which
// costs an interface-key hash, a slice header, and a re-append on every
// wait/signal — all on the hot path of every contended mutex. This file
// replaces it with intrusive FIFO lists threaded through Thread.wnext,
// indexed by a small open-addressing table whose slots are recycled when a
// queue empties: zero allocations on wait/signal/broadcast and O(1)
// dequeue. All of it is manipulated only under s.mu by the token holder, so
// FIFO order — and therefore the deterministic schedule — is exactly the
// order threads called WaitOn, same as the map-of-slices it replaces.
//
// Keys. The table is keyed by a scalar (tag, value) pair instead of an
// interface so lookups never hash an interface header or allocate to box a
// key. Scheduler-owned key types (Mutex, RWMutex, Cond, SoftBarrier) carry
// a lazily assigned nonzero id; join keys use the target's thread id;
// external key types implement Keyer to supply their own value. Anything
// else falls back to an interning map (one allocation per distinct key
// object, ever — not per wait).

// Keyer lets an external wait-queue key type supply its own scalar
// identity, keeping it on the allocation-free path. DMTWaitKey must return
// equal values iff the keys compare equal under ==, and distinct key types
// used on the same scheduler must namespace their value spaces (e.g. with
// distinct high bits) so they cannot collide.
type Keyer interface{ DMTWaitKey() uint64 }

// waitKey is the scalar identity of a wait-queue key. The zero waitKey
// (tag 0) marks an empty table slot; every real key has a nonzero tag.
type waitKey struct {
	tag uint8
	v   uint64
}

const (
	tagMutex uint8 = iota + 1
	tagRWMutex
	tagCond
	tagBarrier
	tagJoin
	tagExternal
	tagInterned
)

// hash mixes the key into a table index (SplitMix64 finalizer). The tag is
// folded in so e.g. join key 3 and mutex id 3 land in different probe
// sequences.
func (k waitKey) hash() uint64 {
	h := k.v ^ uint64(k.tag)*0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// waitSlot is one open-addressing slot: a key and its intrusive FIFO.
type waitSlot struct {
	key  waitKey
	head *Thread
	tail *Thread
}

// keyOfLocked derives the scalar identity for a wait-queue key, lazily
// assigning ids to scheduler-owned key objects. Caller holds s.mu; the
// token-serialized call order makes lazy assignment deterministic, though
// nothing depends on that (ids never enter the schedule hash).
func (s *Scheduler) keyOfLocked(key any) waitKey {
	switch k := key.(type) {
	case *Mutex:
		if k.wkey == 0 {
			s.keySeq++
			k.wkey = s.keySeq
		}
		return waitKey{tagMutex, k.wkey}
	case *Cond:
		if k.wkey == 0 {
			s.keySeq++
			k.wkey = s.keySeq
		}
		return waitKey{tagCond, k.wkey}
	case *RWMutex:
		if k.wkey == 0 {
			s.keySeq++
			k.wkey = s.keySeq
		}
		return waitKey{tagRWMutex, k.wkey}
	case *SoftBarrier:
		if k.wkey == 0 {
			s.keySeq++
			k.wkey = s.keySeq
		}
		return waitKey{tagBarrier, k.wkey}
	case joinKey:
		return waitKey{tagJoin, uint64(k.t.id)}
	case Keyer:
		return waitKey{tagExternal, k.DMTWaitKey()}
	default:
		if id, ok := s.internKeys[key]; ok {
			return waitKey{tagInterned, id}
		}
		if s.internKeys == nil {
			s.internKeys = make(map[any]uint64)
		}
		s.keySeq++
		s.internKeys[key] = s.keySeq
		return waitKey{tagInterned, s.keySeq}
	}
}

// waitSlotOf returns the slot index for k and whether k is present.
// Linear probing; the table never fills past 3/4.
func (s *Scheduler) waitSlotOf(k waitKey) (int, bool) {
	mask := uint64(len(s.wslots) - 1)
	i := k.hash() & mask
	for {
		sl := &s.wslots[i]
		if sl.key == k {
			return int(i), true
		}
		if sl.key == (waitKey{}) {
			return int(i), false
		}
		i = (i + 1) & mask
	}
}

// waitPushLocked appends t to k's FIFO, creating the queue if needed.
func (s *Scheduler) waitPushLocked(k waitKey, t *Thread) {
	if (s.wused+1)*4 >= len(s.wslots)*3 {
		s.waitGrowLocked()
	}
	i, found := s.waitSlotOf(k)
	sl := &s.wslots[i]
	t.wnext = nil
	if !found {
		sl.key = k
		sl.head, sl.tail = t, t
		s.wused++
		return
	}
	sl.tail.wnext = t
	sl.tail = t
}

// waitPopLocked dequeues the first waiter on k (FIFO), or nil. An emptied
// slot is recycled immediately so the table never accumulates tombstones.
func (s *Scheduler) waitPopLocked(k waitKey) *Thread {
	if s.wused == 0 {
		return nil
	}
	i, found := s.waitSlotOf(k)
	if !found {
		return nil
	}
	sl := &s.wslots[i]
	w := sl.head
	sl.head = w.wnext
	w.wnext = nil
	if sl.head == nil {
		sl.tail = nil
		s.waitDeleteLocked(i)
	}
	return w
}

// waitTakeLocked removes and returns k's whole FIFO (linked by wnext), or
// nil. The caller owns the chain and must clear wnext links as it walks.
func (s *Scheduler) waitTakeLocked(k waitKey) *Thread {
	if s.wused == 0 {
		return nil
	}
	i, found := s.waitSlotOf(k)
	if !found {
		return nil
	}
	h := s.wslots[i].head
	s.wslots[i].head, s.wslots[i].tail = nil, nil
	s.waitDeleteLocked(i)
	return h
}

// waitHasLocked reports whether any thread waits on k.
func (s *Scheduler) waitHasLocked(k waitKey) bool {
	if s.wused == 0 {
		return false
	}
	_, found := s.waitSlotOf(k)
	return found
}

// waitDeleteLocked empties slot i and back-shifts any displaced entries in
// the probe chain so lookups never need tombstones.
func (s *Scheduler) waitDeleteLocked(i int) {
	mask := len(s.wslots) - 1
	s.wslots[i] = waitSlot{}
	s.wused--
	j := i
	for {
		j = (j + 1) & mask
		sl := s.wslots[j]
		if sl.key == (waitKey{}) {
			return
		}
		// sl may move into the hole at i only if its home slot does not lie
		// cyclically inside (i, j] — otherwise moving it would break its own
		// probe chain.
		home := int(sl.key.hash()) & mask
		if (j-home)&mask >= (j-i)&mask {
			s.wslots[i] = sl
			s.wslots[j] = waitSlot{}
			i = j
		}
	}
}

// waitGrowLocked doubles the table. Rare (table size tracks the number of
// *distinct keys with waiters*, which is bounded by the thread count plus
// the live sync objects under contention).
func (s *Scheduler) waitGrowLocked() {
	old := s.wslots
	s.wslots = make([]waitSlot, len(old)*2)
	s.wused = 0
	for _, sl := range old {
		if sl.key == (waitKey{}) {
			continue
		}
		i, _ := s.waitSlotOf(sl.key)
		s.wslots[i] = sl
		s.wused++
	}
}
