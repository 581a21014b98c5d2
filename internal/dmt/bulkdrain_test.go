package dmt

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// probeResult is what one IdleAdvance call did.
type probeResult struct {
	ok       bool   // IdleAdvance's answer
	called   bool   // the turns callback ran
	parked   bool   // parkedLane() at the call
	panicked any    // recovered value, nil when the call returned
	clock    uint64 // lane clock right after the call
	before   uint64 // lane clock right before it
}

// advanceProbe is a gate that calls IdleAdvance once, from the first
// admitted thread that matches want.
type advanceProbe struct {
	want  func(*Thread) bool
	n     uint64
	armed atomic.Bool
	out   chan probeResult
}

func newAdvanceProbe(n uint64, want func(*Thread) bool) *advanceProbe {
	p := &advanceProbe{want: want, n: n, out: make(chan probeResult, 1)}
	p.armed.Store(true)
	return p
}

func (p *advanceProbe) CheckAdmit(t *Thread) {
	if !p.want(t) || !p.armed.CompareAndSwap(true, false) {
		return
	}
	r := probeResult{parked: t.s.parkedLane(), before: t.s.clockA.Load()}
	defer func() {
		r.panicked = recover()
		r.clock = t.s.clockA.Load()
		p.out <- r
	}()
	r.ok = t.IdleAdvance(func() uint64 { r.called = true; return p.n })
}

func (p *advanceProbe) BusyLane(int) bool { return false }

func (p *advanceProbe) StampLane(int) uint64 { return 0 }

func (p *advanceProbe) result(t *testing.T) probeResult {
	t.Helper()
	select {
	case r := <-p.out:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("probe never fired")
		return probeResult{}
	}
}

func wantIdleAdvanceRefused(t *testing.T, r probeResult) {
	t.Helper()
	if r.panicked != nil {
		t.Fatalf("IdleAdvance panicked: %v", r.panicked)
	}
	if r.ok || r.called || r.clock != r.before {
		t.Fatalf("IdleAdvance did not refuse the call: ok=%v called=%v clock %d -> %d",
			r.ok, r.called, r.before, r.clock)
	}
}

// TestBulkDrainIdleAdvanceOnParkedLane: from the idle thread of a parked
// lane the clock jumps by n and nothing else moves — no token pass is
// counted for the skipped turns and the schedule hash is untouched.
func TestBulkDrainIdleAdvanceOnParkedLane(t *testing.T) {
	const jump = 1 << 30
	s := New()
	p := newAdvanceProbe(jump, func(th *Thread) bool { return th.IsIdle() })
	s.SetGate(p)
	before := s.Stats()
	s.Start()
	r := p.result(t)
	s.Kill()
	s.Join()
	if r.panicked != nil || !r.parked || !r.ok || !r.called || r.clock != r.before+jump {
		t.Fatalf("IdleAdvance on a parked lane: %+v, want a jump of %d", r, uint64(jump))
	}
	after := s.Stats()
	if after.TokenPasses >= jump {
		t.Fatalf("TokenPasses = %d: skipped turns were counted as passes", after.TokenPasses)
	}
	if after.ScheduleSum != before.ScheduleSum {
		t.Fatalf("ScheduleSum moved %#x -> %#x on idle-only activity", before.ScheduleSum, after.ScheduleSum)
	}
}

// TestBulkDrainIdleAdvanceRefuses: the primitive refuses every caller for
// whom a clock jump could skip a turn somebody else was owed — without
// running the callback or moving the clock — and panics for a caller that
// does not even hold the token.
func TestBulkDrainIdleAdvanceRefuses(t *testing.T) {
	t.Run("non-idle thread", func(t *testing.T) {
		s := New()
		p := newAdvanceProbe(5, func(th *Thread) bool { return !th.IsIdle() })
		s.SetGate(p)
		s.StartMain("app", func(th *Thread) {
			var m Mutex
			th.Lock(&m)
			th.Unlock(&m)
		})
		wantIdleAdvanceRefused(t, p.result(t))
		s.Kill()
		s.Join()
	})
	t.Run("another thread runnable", func(t *testing.T) {
		s := New()
		p := newAdvanceProbe(5, func(th *Thread) bool { return th.IsIdle() && th.s.runqLenA.Load() > 1 })
		s.SetGate(p)
		var stop atomic.Bool
		s.StartMain("spinner", func(th *Thread) {
			var m Mutex
			for !stop.Load() { // always runnable: never leaves the run queue
				th.Lock(&m)
				th.Unlock(&m)
			}
		})
		wantIdleAdvanceRefused(t, p.result(t))
		stop.Store(true)
		s.Kill()
		s.Join()
	})
	t.Run("armed soft barrier", func(t *testing.T) {
		s := New()
		// The lone arriver waits on the barrier, so the run queue holds only
		// the idle thread — but the barrier's deadline counts idle ticks.
		p := newAdvanceProbe(5, func(th *Thread) bool {
			return th.IsIdle() && th.s.runqLenA.Load() == 1 && th.s.activeBarriersA.Load() == 1
		})
		s.SetGate(p)
		sb := NewSoftBarrier(2, 1<<40)
		s.StartMain("arriver", func(th *Thread) { th.SoftBarrierArrive(sb) })
		wantIdleAdvanceRefused(t, p.result(t))
		s.Kill()
		s.Join()
	})
	t.Run("without the token", func(t *testing.T) {
		s := New()
		s.Start()
		defer func() {
			s.Kill()
			s.Join()
		}()
		th := &Thread{s: s, name: "stray"}
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "IdleAdvance") {
				t.Fatalf("IdleAdvance off the token did not panic: %q", msg)
			}
		}()
		th.IdleAdvance(func() uint64 { return 5 })
	})
}
