package paxos

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"crane/internal/obs"
	"crane/internal/wal"
)

// evKind names what one event carries into the core.
type evKind uint8

const (
	evStart    evKind = iota // the driver began: announce the view, deliver the recovered log
	evTick                   // a quarter heartbeat passed
	evMsg                    // a peer's message
	evPropose                // ProposeBatch
	evDone                   // SetDone
	evCampaign               // Campaign
)

// round is one Accept round of the pipeline: its last index and when it
// was broadcast.
type round struct {
	last uint64
	sent time.Time
}

// event is one input of the core.
type event struct {
	kind  evKind
	msg   *Message
	batch [][]byte   // evPropose
	done  uint64     // evDone watermark
	reply chan error // evPropose: the driver answers here; the core never reads it
}

// core is the protocol: one replica's state and the handlers that move it.
// step is its one entry point. It starts no goroutine, takes no lock and
// reads no clock: time arrives as step's now. Effects leave through the
// Config seams (Transport.Send, Store, OnDeliver, OnViewChange, AuditSource,
// OnAudit) in the order the handlers run, so an entry is persisted before
// it is delivered and a backup acknowledges an Accept before it persists
// the commits that Accept carried.
type core struct {
	cfg Config
	now time.Time // the time of the event being stepped

	status     Status
	view       uint64
	primary    int
	lastNorm   uint64 // last view in which status was Normal
	promised   uint64 // highest view promised in elections
	log        []LogEntry
	base       uint64 // index of log[0] minus 1 (0 when log starts at 1)
	commitIdx  uint64
	match      map[int]uint64 // highest index each peer acknowledged in this view
	matchBuf   []uint64       // scratch for the commit target
	lastHB     time.Time
	pending    [][]byte      // queued proposals not yet in an Accept round
	inflight   []round       // unacknowledged Accept rounds, oldest first
	electDelay time.Duration // randomized election timeout
	electRng   *rand.Rand    // re-randomizes the timeout per retry

	// Min/Done GC state (6.824 paxos lab style). doneIdx is this node's own
	// done watermark (SetDone); peerDone the watermarks peers piggybacked on
	// AcceptOK; gcFloor the highest compaction floor applied so far. All
	// default 0, so nodes that never call SetDone never GC — full-replay
	// recovery (RestartReplica) is unaffected until a caller opts in.
	doneIdx  uint64
	peerDone map[int]uint64
	gcFloor  uint64

	// instruments (nil instruments discard observations, so a node built
	// without Config.Obs pays only a nil check per event)
	obsProposals    *obs.Counter
	obsCommits      *obs.Counter
	obsBatchEntries *obs.Histogram // entries per Accept round
	obsCommitLat    *obs.Histogram // sendBatch -> round fully committed

	// election state (candidate side)
	electing       bool
	electPhase     int // 1 = ProposeView sent, 2 = ProposePrimary sent
	candView       uint64
	promises       map[int]*Message
	primaryAcks    map[int]bool
	mergedLog      []LogEntry
	mergedCommit   uint64
	electionStart  time.Time
	lastElectionMs float64
	viewCount      uint64 // Normal views entered
}

// newCore builds a core from cfg and its store's records.
func newCore(cfg Config) (*core, error) {
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.ElectionTimeout == 0 {
		cfg.ElectionTimeout = 3 * cfg.HeartbeatInterval
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("paxos: nil transport")
	}
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("paxos: no peers")
	}
	c := &core{
		cfg:      cfg,
		primary:  cfg.InitialPrimary,
		match:    make(map[int]uint64),
		peerDone: make(map[int]uint64),
	}
	if cfg.Obs != nil {
		c.obsProposals = cfg.Obs.Counter("paxos_proposals_total",
			"payloads accepted for consensus ordering by this node")
		c.obsCommits = cfg.Obs.Counter("paxos_commits_total",
			"entries committed (persisted and delivered) by this node")
		c.obsBatchEntries = cfg.Obs.ValueHistogram("paxos_batch_entries",
			"entries coalesced per Accept round")
		c.obsCommitLat = cfg.Obs.Histogram("paxos_commit_seconds",
			"Accept-round broadcast to quorum commit")
	}
	// Randomize the election timeout per node to break candidate ties;
	// re-randomized on every retry so near-identical draws cannot keep
	// two candidates colliding round after round.
	c.electRng = rand.New(rand.NewSource(int64(cfg.ID)*7919 + 42)) //crane:detflow-ok election jitter is intentionally per-replica; consensus agrees on the outcome
	c.electDelay = cfg.ElectionTimeout +
		time.Duration(c.electRng.Int63n(int64(cfg.ElectionTimeout)+1))
	if err := c.recover(); err != nil {
		return nil, err
	}
	return c, nil
}

// recover rebuilds committed state from the store. A store compacted past
// DeliverFrom+1 is refused: replaying its suffix alone would hand the
// application a log with a hole where the compacted prefix was, and only a
// checkpoint at or above the first stored index covers that hole.
func (c *core) recover() error {
	if c.cfg.Store == nil {
		return nil
	}
	first, ok := c.cfg.Store.First()
	if !ok {
		return nil
	}
	if first > c.cfg.DeliverFrom+1 {
		return fmt.Errorf("paxos: store begins at index %d but replay must start at index %d (DeliverFrom+1): the prefix was compacted and no checkpoint covers it",
			first, c.cfg.DeliverFrom+1)
	}
	c.base = first - 1
	return c.cfg.Store.Scan(first, ^uint64(0), func(r wal.Record) bool {
		c.log = append(c.log, LogEntry{Index: r.Index, View: r.View, Payload: r.Payload})
		c.commitIdx = r.Index
		if r.View > c.lastNorm {
			c.lastNorm = r.View
			c.view = r.View
		}
		return true
	})
}

// step runs one event at time now. Its error answers an evPropose.
func (c *core) step(now time.Time, ev event) error {
	c.now = now
	switch ev.kind {
	case evStart:
		c.lastHB = now
		if c.cfg.OnViewChange != nil && c.status == StatusNormal {
			c.cfg.OnViewChange(c.view, c.primary)
		}
		// Deliver WAL-recovered entries beyond DeliverFrom.
		for _, e := range c.log {
			if e.Index <= c.commitIdx && e.Index > c.cfg.DeliverFrom && c.cfg.OnDeliver != nil {
				c.cfg.OnDeliver(e)
			}
		}
	case evTick:
		c.handleTick()
	case evMsg:
		c.handle(*ev.msg)
	case evPropose:
		return c.handlePropose(ev.batch)
	case evDone:
		c.handleDone(ev.done)
	case evCampaign:
		if c.status != StatusNormal || c.primary != c.cfg.ID {
			c.startElection()
			// Hold the timer-driven retry off for a full backoff window so
			// it cannot trample this election.
			c.lastHB = now
		}
	}
	return nil
}

// handleDone raises the local done watermark and, on the primary, re-checks
// the cluster minimum.
func (c *core) handleDone(idx uint64) {
	if idx <= c.doneIdx {
		return
	}
	c.doneIdx = idx
	c.maybeGC()
}

// maybeGC compacts to the minimum done watermark of this node and every
// peer (0 while any peer has yet to report). Only the primary computes it
// (it is the only node that sees every peer's AcceptOK); backups compact at
// the floor the primary announces on Heartbeat/Commit messages.
func (c *core) maybeGC() {
	if c.status != StatusNormal || c.primary != c.cfg.ID {
		return
	}
	floor := c.doneIdx
	for _, p := range c.cfg.Peers {
		if p != c.cfg.ID {
			floor = min(floor, c.peerDone[p])
		}
	}
	c.applyGCFloor(floor)
}

// applyGCFloor raises the GC floor on any node and discards the committed
// log at or below it, in memory and in the store.
func (c *core) applyGCFloor(floor uint64) {
	if floor <= c.gcFloor {
		return
	}
	c.gcFloor = floor
	idx := min(floor, c.commitIdx)
	if idx <= c.base {
		return
	}
	c.log = append([]LogEntry(nil), c.log[idx-c.base:]...)
	c.base = idx
	if c.cfg.Store != nil {
		c.cfg.Store.CompactBefore(idx + 1) //crane:fsyncerr-ok compaction is best-effort GC: failure retains extra segments but loses no committed entry
	}
}

func (c *core) majority() int { return len(c.cfg.Peers)/2 + 1 }

func (c *core) broadcast(msg Message) {
	msg.From = c.cfg.ID
	for _, p := range c.cfg.Peers {
		if p != c.cfg.ID {
			c.cfg.Transport.Send(p, msg)
		}
	}
}

// broadcastAccept sends one Accept round for ents, a contiguous run of
// log entries, in the current view.
func (c *core) broadcastAccept(ents []LogEntry) {
	c.broadcast(Message{Type: MsgAccept, View: c.view, Index: ents[0].Index,
		Entries: ents, CommitIdx: c.commitIdx})
}

func (c *core) send(to int, msg Message) {
	msg.From = c.cfg.ID
	c.cfg.Transport.Send(to, msg)
}

func (c *core) lastLogIndex() uint64 { return c.base + uint64(len(c.log)) }

func (c *core) entryAt(idx uint64) *LogEntry {
	if idx <= c.base || idx > c.lastLogIndex() {
		return nil
	}
	return &c.log[idx-c.base-1]
}

func (c *core) handlePropose(batch [][]byte) error {
	if c.status != StatusNormal || c.primary != c.cfg.ID {
		return ErrNotPrimary
	}
	c.pending = append(c.pending, batch...)
	c.obsProposals.Add(uint64(len(batch)))
	c.maybeSendBatches()
	return nil
}

// maybeSendBatches drains queued proposals into multi-entry Accept rounds
// while the pipeline window has room. Called whenever proposals arrive or
// the commit index advances (freeing a window slot).
func (c *core) maybeSendBatches() {
	if c.status != StatusNormal || c.primary != c.cfg.ID {
		return
	}
	for len(c.pending) > 0 && len(c.inflight) < MaxInflight {
		c.sendBatch()
	}
}

// sendBatch moves one batch from the pending queue into the log and
// broadcasts it as a single Accept round.
func (c *core) sendBatch() {
	count, bytes := 0, 0
	for count < len(c.pending) && count < MaxBatch {
		if count > 0 && bytes+len(c.pending[count]) > MaxBatchBytes {
			break
		}
		bytes += len(c.pending[count])
		count++
	}
	first := c.lastLogIndex() + 1
	ents := make([]LogEntry, count)
	for i := 0; i < count; i++ {
		e := LogEntry{Index: first + uint64(i), View: c.view, Payload: c.pending[i]}
		c.log = append(c.log, e)
		ents[i] = e
	}
	c.pending = c.pending[count:]
	if len(c.pending) == 0 {
		c.pending = nil // release the drained backing array
	}
	c.inflight = append(c.inflight, round{last: first + uint64(count) - 1, sent: c.now})
	c.obsBatchEntries.ObserveValue(uint64(count))
	c.broadcastAccept(ents)
	// Single-replica degenerate case: self-ack is already a majority.
	c.tryAdvanceCommit()
}

// resetBatcher discards proposal state that cannot survive a view
// transition: in-flight rounds die with the view, and queued payloads are
// dropped like any uncommitted proposal.
func (c *core) resetBatcher() {
	c.pending = nil
	c.inflight = nil
}

func (c *core) handleTick() {
	if c.status == StatusNormal && c.primary == c.cfg.ID {
		// Safety net: refill the pipeline window in case a freeing commit
		// arrived without triggering a send (e.g. after a view change).
		c.maybeSendBatches()
		// The heartbeat carries the log tail so backups that lost
		// Accepts (e.g. to transport overflow under load) detect the
		// gap and catch up even when no newer Accept arrives.
		c.broadcast(Message{Type: MsgHeartbeat, View: c.view,
			CommitIdx: c.commitIdx, Index: c.lastLogIndex(),
			Done: c.gcFloor})
		return
	}
	// Backup or mid-election: check for primary silence.
	if c.now.Sub(c.lastHB) >= c.electDelay {
		c.startElection()
		c.lastHB = c.now // back off before retrying
		c.electDelay = c.cfg.ElectionTimeout +
			time.Duration(c.electRng.Int63n(int64(c.cfg.ElectionTimeout)+1))
	}
}

func (c *core) startElection() {
	next := c.view + 1
	if c.promised >= next {
		next = c.promised + 1
	}
	if c.electing && c.candView >= next {
		next = c.candView + 1
	}
	c.electing = true
	c.electPhase = 1
	c.candView = next
	c.status = StatusViewChange
	c.resetBatcher()
	c.promises = map[int]*Message{}
	c.primaryAcks = map[int]bool{}
	c.electionStart = c.now
	// Self-promise.
	c.promised = next
	c.promises[c.cfg.ID] = &Message{
		From: c.cfg.ID, View: next, CommitIdx: c.commitIdx,
		LastNorm: c.lastNorm, Entries: c.entriesAbove(c.commitIdx),
	}
	c.broadcast(Message{Type: MsgProposeView, View: next, CommitIdx: c.commitIdx})
	c.maybeWinPhase1()
}

// entriesAbove copies the log above idx, or above the GC floor if that is
// higher: a compacted prefix is gone.
func (c *core) entriesAbove(idx uint64) []LogEntry {
	var out []LogEntry
	for i := max(idx, c.base) + 1; i <= c.lastLogIndex(); i++ {
		out = append(out, *c.entryAt(i))
	}
	return out
}

// handlers maps each message type to its handler.
var handlers = [...]func(*core, Message){
	MsgAccept: (*core).onAccept, MsgAcceptOK: (*core).onAcceptOK,
	MsgCommit: (*core).onHeartbeat, MsgHeartbeat: (*core).onHeartbeat,
	MsgProposeView: (*core).onProposeView, MsgPromiseView: (*core).onPromiseView,
	MsgProposePrimary: (*core).onProposePrimary, MsgAckPrimary: (*core).onAckPrimary,
	MsgNewPrimary: (*core).onNewPrimary, MsgRequestEntries: (*core).onRequestEntries,
	MsgEntries: (*core).onEntries,
}

func (c *core) handle(msg Message) {
	if int(msg.Type) < len(handlers) && handlers[msg.Type] != nil {
		handlers[msg.Type](c, msg)
	}
}

func (c *core) onAccept(msg Message) {
	if msg.View < c.view || c.status != StatusNormal {
		return
	}
	if msg.View > c.view {
		// We missed a view change; ask the sender for state.
		c.send(msg.From, Message{Type: MsgRequestEntries, Index: c.lastLogIndex() + 1})
		return
	}
	c.lastHB = c.now
	// Append the entries that extend our log and answer with one
	// cumulative AcceptOK covering the whole round. Within a view the
	// primary's appends are sequential, so an OK at index i acknowledges
	// every entry at or below i.
	if msg.Entries[0].Index > c.lastLogIndex()+1 {
		// Gap ahead of the batch: request catch-up.
		c.send(msg.From, Message{Type: MsgRequestEntries, Index: c.lastLogIndex() + 1})
		return
	}
	for _, e := range msg.Entries {
		if e.Index == c.lastLogIndex()+1 {
			c.log = append(c.log, e)
		}
		// Entries at or below lastLogIndex are duplicates; the cumulative
		// OK below re-acks them idempotently.
	}
	last := msg.Entries[len(msg.Entries)-1].Index
	if lli := c.lastLogIndex(); last > lli {
		last = lli
	}
	c.sendAcceptOK(msg.From, last)
	c.applyCommit(msg.CommitIdx)
}

// sendAcceptOK replies with an AcceptOK, piggybacking any fresh
// flight-recorder audit samples for the primary to cross-check.
func (c *core) sendAcceptOK(to int, idx uint64) {
	m := Message{Type: MsgAcceptOK, View: c.view, Index: idx, Done: c.doneIdx}
	if c.cfg.AuditSource != nil {
		m.Audit = c.cfg.AuditSource()
	}
	c.send(to, m)
}

func (c *core) onAcceptOK(msg Message) {
	if c.cfg.OnAudit != nil && len(msg.Audit) > 0 {
		c.cfg.OnAudit(msg.From, msg.Audit)
	}
	if msg.Done > c.peerDone[msg.From] {
		c.peerDone[msg.From] = msg.Done
		c.maybeGC()
	}
	if msg.View != c.view || c.primary != c.cfg.ID || c.status != StatusNormal {
		return
	}
	// Cumulative acknowledgment: within a view the backup's log is appended
	// sequentially from the primary, so an OK at msg.Index covers every
	// index at or below it.
	if msg.Index > c.match[msg.From] {
		c.match[msg.From] = msg.Index
		c.tryAdvanceCommit()
	}
}

// tryAdvanceCommit commits through the highest index a majority holds in
// this view: the majority-th highest match index, counting this node at its
// log tail.
func (c *core) tryAdvanceCommit() {
	c.matchBuf = c.matchBuf[:0]
	for _, p := range c.cfg.Peers {
		if p == c.cfg.ID {
			c.matchBuf = append(c.matchBuf, c.lastLogIndex())
		} else {
			c.matchBuf = append(c.matchBuf, c.match[p])
		}
	}
	slices.Sort(c.matchBuf)
	target := c.matchBuf[len(c.matchBuf)-c.majority()]
	if lli := c.lastLogIndex(); target > lli {
		target = lli
	}
	if target <= c.commitIdx {
		return
	}
	c.commitThrough(target)
	c.broadcast(Message{Type: MsgCommit, View: c.view, CommitIdx: c.commitIdx,
		Done: c.gcFloor})
	// Retire acknowledged pipeline rounds and refill the window.
	for len(c.inflight) > 0 && c.inflight[0].last <= c.commitIdx {
		c.obsCommitLat.Observe(c.now.Sub(c.inflight[0].sent))
		c.inflight = c.inflight[1:]
	}
	if len(c.inflight) == 0 {
		c.inflight = nil
	}
	c.maybeSendBatches()
}

// commitThrough persists and delivers entries (commitIdx, target] — the
// group-commit point: the whole range is appended to the store as one batch
// (one buffered write + one fsync), then delivered in index order.
func (c *core) commitThrough(target uint64) {
	if lli := c.lastLogIndex(); target > lli {
		target = lli
	}
	if target <= c.commitIdx {
		return
	}
	first := c.commitIdx + 1
	if c.cfg.Store != nil {
		recs := make([]wal.Record, 0, target-c.commitIdx)
		for i := first; i <= target; i++ {
			e := c.entryAt(i)
			recs = append(recs, wal.Record{Index: e.Index, View: e.View, Payload: e.Payload})
		}
		if err := c.cfg.Store.AppendBatch(recs); err != nil {
			// A persistence failure is fatal for a real deployment; in
			// this reproduction we surface it loudly.
			panic(fmt.Sprintf("paxos: wal append: %v", err))
		}
	}
	for i := first; i <= target; i++ {
		e := c.entryAt(i)
		c.commitIdx = i
		if c.cfg.OnDeliver != nil && i > c.cfg.DeliverFrom {
			c.cfg.OnDeliver(*e)
		}
	}
	c.obsCommits.Add(target - first + 1)
}

// applyCommit advances the commit index toward target using local entries.
func (c *core) applyCommit(target uint64) {
	c.commitThrough(target)
	if c.commitIdx < target {
		// Missing committed entries: catch up from the primary.
		c.send(c.primary, Message{Type: MsgRequestEntries, Index: c.lastLogIndex() + 1})
	}
}

func (c *core) onHeartbeat(msg Message) {
	if msg.View < c.view {
		// A stale primary pinging us; if we are its successor's follower,
		// ignore. If *we* are primary of a newer view, re-announce so the
		// old primary downgrades (§7.6's self-downgrading).
		if c.primary == c.cfg.ID && c.status == StatusNormal {
			c.send(msg.From, Message{Type: MsgNewPrimary, View: c.view,
				Primary: c.cfg.ID, CommitIdx: c.commitIdx,
				Entries: c.entriesAbove(0)})
		}
		return
	}
	if msg.View < c.promised && c.status == StatusViewChange && !c.electing {
		// We promised a newer view to another candidate: this primary is
		// deposed for us. Its heartbeats neither hold off our election
		// timer nor bring us back to Normal, where we would acknowledge
		// what the candidate's log merge has not seen.
		return
	}
	c.lastHB = c.now
	if msg.View > c.view {
		// We are behind; adopt after fetching state.
		c.send(msg.From, Message{Type: MsgRequestEntries, Index: c.lastLogIndex() + 1})
		return
	}
	if c.primary < 0 {
		// A node that rejoined in its stored view learns who leads it: only
		// that view's primary heartbeats in it.
		c.primary = msg.From
	}
	if msg.From == c.primary && msg.Done > c.gcFloor {
		// The primary announced a new cluster-minimum done watermark: every
		// replica (including this one) has promised it holds a checkpoint at
		// or above it, so trimming below it loses nothing recoverable.
		c.applyGCFloor(msg.Done)
	}
	if c.status == StatusViewChange && msg.From == c.primary {
		// Primary is alive after all (e.g. transient network blip during
		// our election attempt): return to normal.
		c.status = StatusNormal
		c.electing = false
	}
	if msg.Index > c.lastLogIndex() && msg.From == c.primary {
		// We are missing accepted entries (dropped Accepts): catch up.
		c.send(msg.From, Message{Type: MsgRequestEntries, Index: c.lastLogIndex() + 1})
	} else if msg.Type == MsgHeartbeat && msg.From == c.primary && msg.CommitIdx < c.lastLogIndex() {
		// The primary has not committed what we hold: our AcceptOKs may be
		// lost, and with its pipeline window full no new round would ask
		// again. Repeat the cumulative acknowledgment.
		c.sendAcceptOK(msg.From, c.lastLogIndex())
	}
	c.applyCommit(msg.CommitIdx)
}

// --- election: step 1 (propose a new view) ---

func (c *core) onProposeView(msg Message) {
	// Tie-break concurrent candidacies deterministically: a candidate
	// yields to an equal-view proposal from a higher node id.
	tie := msg.View == c.promised && c.electing && msg.From > c.cfg.ID
	if (msg.View <= c.promised && !tie) || msg.View <= c.view {
		return
	}
	c.promised = msg.View
	c.status = StatusViewChange
	c.electing = false // defer to the candidate
	// Give the candidate a full timeout to finish: an acceptor whose own
	// timer fired between this promise and the NewPrimary it leads to
	// would depose the winner the moment it starts serving.
	c.lastHB = c.now
	c.send(msg.From, Message{Type: MsgPromiseView, View: msg.View,
		CommitIdx: c.commitIdx, LastNorm: c.lastNorm,
		Entries: c.entriesAbove(msg.CommitIdx)})
}

func (c *core) onPromiseView(msg Message) {
	if !c.electing || c.electPhase != 1 || msg.View != c.candView {
		return
	}
	m := msg
	c.promises[msg.From] = &m
	c.maybeWinPhase1()
}

func (c *core) maybeWinPhase1() {
	if len(c.promises) < c.majority() {
		return
	}
	// Merge logs: committed prefix = max commit; uncommitted suffix from
	// the promise with the highest (LastNorm, length). Promises are read
	// in peer order, so ties resolve the same way on every run.
	var bestCommit uint64
	var best *Message
	for _, id := range c.cfg.Peers {
		p := c.promises[id]
		if p == nil {
			continue
		}
		if p.CommitIdx > bestCommit {
			bestCommit = p.CommitIdx
		}
		if best == nil || p.LastNorm > best.LastNorm ||
			(p.LastNorm == best.LastNorm && lastIdx(p) > lastIdx(best)) {
			best = p
		}
	}
	// Assemble the merged view of all entries above our own commitIdx:
	// prefer entries from `best`, fill committed gaps from any promise.
	merged := make(map[uint64]LogEntry)
	for _, id := range c.cfg.Peers {
		if p := c.promises[id]; p != nil {
			for _, e := range p.Entries {
				if old, ok := merged[e.Index]; e.Index <= bestCommit && (!ok || e.View > old.View) {
					merged[e.Index] = e
				}
			}
		}
	}
	for _, e := range best.Entries {
		if e.Index > bestCommit {
			merged[e.Index] = e
		}
	}
	// Build a contiguous suffix starting after our commitIdx.
	var suffix []LogEntry
	for i := c.commitIdx + 1; ; i++ {
		e, ok := merged[i]
		if !ok {
			if le := c.entryAt(i); le != nil && i <= bestCommit {
				e, ok = *le, true
			}
		}
		if !ok {
			break
		}
		e.View = c.candView
		suffix = append(suffix, e)
	}
	c.mergedLog = suffix
	c.mergedCommit = bestCommit
	c.electPhase = 2
	c.primaryAcks = map[int]bool{c.cfg.ID: true}
	c.broadcast(Message{Type: MsgProposePrimary, View: c.candView, Primary: c.cfg.ID})
	c.maybeWinPhase2()
}

func lastIdx(p *Message) uint64 {
	if len(p.Entries) == 0 {
		return p.CommitIdx
	}
	return p.Entries[len(p.Entries)-1].Index
}

// --- election: step 2 (propose self as primary candidate) ---

func (c *core) onProposePrimary(msg Message) {
	if msg.View != c.promised || msg.View <= c.view {
		return
	}
	c.send(msg.From, Message{Type: MsgAckPrimary, View: msg.View})
}

func (c *core) onAckPrimary(msg Message) {
	if !c.electing || c.electPhase != 2 || msg.View != c.candView {
		return
	}
	c.primaryAcks[msg.From] = true
	c.maybeWinPhase2()
}

func (c *core) maybeWinPhase2() {
	if len(c.primaryAcks) < c.majority() {
		return
	}
	// --- step 3: announce self as the new primary ---
	c.installNewView(c.candView, c.cfg.ID, c.mergedCommit, c.mergedLog)
	c.broadcast(Message{Type: MsgNewPrimary, View: c.view, Primary: c.cfg.ID,
		CommitIdx: c.commitIdx, Entries: c.mergedLog})
	// Re-propose any uncommitted suffix under the new view as batched
	// Accept rounds (MaxBatch entries per round).
	for first := c.commitIdx + 1; first <= c.lastLogIndex(); {
		last := min(first+MaxBatch-1, c.lastLogIndex())
		ents := make([]LogEntry, 0, last-first+1)
		for i := first; i <= last; i++ {
			ents = append(ents, *c.entryAt(i))
		}
		c.broadcastAccept(ents)
		first = last + 1
	}
	c.lastElectionMs = float64(c.now.Sub(c.electionStart).Microseconds()) / 1000.0
	c.electing = false
	c.tryAdvanceCommit()
}

func (c *core) onNewPrimary(msg Message) {
	if msg.View < c.view || (msg.View == c.view && c.status == StatusNormal) {
		return
	}
	c.installNewView(msg.View, msg.Primary, msg.CommitIdx, msg.Entries)
	c.lastHB = c.now
}

// installNewView adopts view/primary and reconciles the log: entries above
// our commit index are replaced by the announced suffix; newly learned
// committed entries are committed locally.
func (c *core) installNewView(view uint64, primary int, commit uint64, suffix []LogEntry) {
	// Drop our uncommitted suffix.
	if c.lastLogIndex() > c.commitIdx {
		c.log = c.log[:c.commitIdx-c.base]
	}
	for _, e := range suffix {
		if e.Index == c.lastLogIndex()+1 {
			le := e
			le.View = view
			c.log = append(c.log, le)
		}
	}
	c.view = view
	c.primary = primary
	c.status = StatusNormal
	c.lastNorm = view
	if c.promised < view {
		c.promised = view
	}
	c.electing = false
	c.resetBatcher()
	clear(c.match) // acknowledgments count within one view
	c.commitThrough(commit)
	if c.commitIdx < commit {
		c.send(primary, Message{Type: MsgRequestEntries, Index: c.lastLogIndex() + 1})
	}
	c.viewCount++
	if c.cfg.OnViewChange != nil {
		c.cfg.OnViewChange(view, primary)
	}
	// Ack any uncommitted entries we just installed (one cumulative OK).
	if primary != c.cfg.ID && c.lastLogIndex() > c.commitIdx {
		c.sendAcceptOK(primary, c.lastLogIndex())
	}
}

// --- catch-up ---

// catchUpBatch caps one catch-up reply; a lagging node re-requests until
// level. Unbounded replies would make recovery quadratic under load.
const catchUpBatch = 2048

func (c *core) onRequestEntries(msg Message) {
	if c.status != StatusNormal || c.primary != c.cfg.ID {
		return
	}
	from := msg.Index
	if from <= c.base {
		from = c.base + 1
	}
	ents := c.entriesAbove(from - 1)
	if len(ents) > catchUpBatch {
		ents = ents[:catchUpBatch]
	}
	c.send(msg.From, Message{Type: MsgEntries, View: c.view,
		CommitIdx: c.commitIdx, Entries: ents, Primary: c.cfg.ID})
}

func (c *core) onEntries(msg Message) {
	if msg.View < c.view {
		return
	}
	if msg.View > c.view {
		// Adopt the newer view along with its entries.
		c.installNewView(msg.View, msg.Primary, 0, nil)
	}
	c.lastHB = c.now
	appendedUncommitted := false
	for _, e := range msg.Entries {
		if e.Index == c.lastLogIndex()+1 {
			c.log = append(c.log, e)
			if e.Index > msg.CommitIdx {
				appendedUncommitted = true
			}
		}
	}
	if appendedUncommitted && c.status == StatusNormal {
		// One cumulative OK covers every uncommitted entry just appended.
		// (Mid-election the promise already sent must stay our last word.)
		c.sendAcceptOK(msg.From, c.lastLogIndex())
	}
	if len(msg.Entries) == catchUpBatch && c.lastLogIndex() < msg.CommitIdx {
		// More committed entries remain: keep pulling.
		c.send(msg.From, Message{Type: MsgRequestEntries, Index: c.lastLogIndex() + 1})
	}
	c.applyCommit(msg.CommitIdx)
}
