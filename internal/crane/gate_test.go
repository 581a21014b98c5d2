package crane

import (
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"crane/internal/hrtimer"
	"crane/internal/papi"
	"crane/internal/seq"
	"crane/internal/simnet"
)

// gateHarness builds a replica shell (sequence + DMT process + gate)
// without consensus: entries are injected directly, as if delivered.
type gateHarness struct {
	r    *Replica
	proc *papi.ParrotProc
}

func newGateHarness(t *testing.T, bubbling bool) *gateHarness {
	t.Helper()
	cfg := testConfig(ModeCrane)
	cfg.setDefaults()
	r := newReplica(0, &cfg, papi.Program{Name: "h", Ports: []int{1}}, simnet.New(simnet.Options{}))
	proc := papi.NewParrotProc(r.net, r.host, r.fs)
	proc.SetSocketLayer(&dmtSockets{r: r})
	proc.Sched.SetGate(newGate(r, bubbling))
	r.pproc = proc
	t.Cleanup(func() {
		r.killedFlag.Store(true)
		proc.Kill()
		proc.Wait()
	})
	return &gateHarness{r: r, proc: proc}
}

func (h *gateHarness) inject(e *seq.Entry) { h.r.sqs[0].Enqueue(e) }

// feedBubbles plays the consensus component's role for harness tests:
// whenever the sequence runs dry, grant another bubble so trailing
// operations (close, thread exit) are not starved of logical clocks.
func (h *gateHarness) feedBubbles(t *testing.T) {
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		idx := uint64(1000)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				if h.r.sqs[0].Empty() {
					idx++
					h.inject(&seq.Entry{Index: idx, Kind: seq.KindBubble, NClock: 50})
				}
			}
		}
	}()
}

// TestGateBubbleGrantsClocks: with bubbling on, synchronization only
// proceeds while the sequence holds entries; a bubble grants exactly
// NClock operations.
func TestGateBubbleGrantsClocks(t *testing.T) {
	h := newGateHarness(t, true)
	var ops atomic.Int64
	h.proc.Start(papi.FuncInstance{Main: func(tt papi.T) {
		m := tt.NewMutex()
		for i := 0; i < 1000; i++ {
			m.Lock(tt)
			m.Unlock(tt)
			ops.Add(2)
		}
	}})
	// Without any entry, the gate blocks every op.
	time.Sleep(20 * time.Millisecond)
	if got := ops.Load(); got != 0 {
		t.Fatalf("%d ops proceeded with empty sequence", got)
	}
	// A bubble unblocks exactly its clock budget (shared with the idle
	// thread, so app progress is at most NClock and at least 1).
	h.inject(&seq.Entry{Index: 1, Kind: seq.KindBubble, NClock: 40})
	deadline := time.Now().Add(5 * time.Second)
	for h.r.sqs[0].Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if h.r.sqs[0].Len() != 0 {
		t.Fatal("bubble never exhausted")
	}
	got := ops.Load()
	if got == 0 || got > 40 {
		t.Fatalf("ops after 40-clock bubble = %d", got)
	}
	// More bubbles -> more progress.
	for i := 2; i < 60; i++ {
		h.inject(&seq.Entry{Index: uint64(i), Kind: seq.KindBubble, NClock: 100})
	}
	deadline = time.Now().Add(10 * time.Second)
	for ops.Load() < 2000 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ops.Load() < 2000 {
		t.Fatalf("ops = %d after ample bubbles", ops.Load())
	}
}

// TestGateNoBubbleRunsFreely: plan II's gate never blocks on an empty
// sequence.
func TestGateNoBubbleRunsFreely(t *testing.T) {
	h := newGateHarness(t, false)
	done := make(chan struct{})
	h.proc.Start(papi.FuncInstance{Main: func(tt papi.T) {
		m := tt.NewMutex()
		for i := 0; i < 500; i++ {
			m.Lock(tt)
			m.Unlock(tt)
		}
		close(done)
	}})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("no-bubble gate blocked execution")
	}
}

// TestGateAdmitsSocketCalls drives accept+recv purely through injected
// entries (bubbles carry the boot; CONNECT/SEND/CLOSE are consumed at
// deterministic points).
func TestGateAdmitsSocketCalls(t *testing.T) {
	h := newGateHarness(t, true)
	h.feedBubbles(t)
	got := make(chan string, 1)
	h.proc.Start(papi.FuncInstance{Main: func(tt papi.T) {
		l, err := tt.Listen(1)
		if err != nil {
			return
		}
		c, err := l.Accept(tt)
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		var acc []byte
		for {
			n, err := c.Recv(tt, buf)
			acc = append(acc, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				return
			}
		}
		c.Close(tt)
		got <- string(acc)
	}})
	h.inject(&seq.Entry{Index: 1, Kind: seq.KindBubble, NClock: 50})
	h.inject(&seq.Entry{Index: 2, Kind: seq.KindConnect, Conn: 9, Port: 1})
	h.inject(&seq.Entry{Index: 3, Kind: seq.KindSend, Conn: 9, Data: []byte("hel")})
	h.inject(&seq.Entry{Index: 4, Kind: seq.KindSend, Conn: 9, Data: []byte("lo")})
	h.inject(&seq.Entry{Index: 5, Kind: seq.KindClose, Conn: 9})
	select {
	case s := <-got:
		if s != "hello" {
			t.Fatalf("received %q", s)
		}
	case <-time.After(10 * time.Second):
		hd, ok := h.r.sqs[0].Head()
		t.Fatalf("socket admission hung: head=%v %+v stats=%+v open=%d clock=%d",
			ok, hd, h.r.SeqStats(), h.r.OpenConns(), h.proc.Sched.Stats().Clock)
	}
	if h.r.OpenConns() != 0 {
		t.Fatalf("openConns = %d after EOF+close", h.r.OpenConns())
	}
}

// TestGateDiscardsClosedConnEntries: entries for a server-closed
// connection must not wedge the sequence head.
func TestGateDiscardsClosedConnEntries(t *testing.T) {
	h := newGateHarness(t, true)
	h.feedBubbles(t)
	done := make(chan struct{})
	h.proc.Start(papi.FuncInstance{Main: func(tt papi.T) {
		l, err := tt.Listen(1)
		if err != nil {
			return
		}
		c, err := l.Accept(tt)
		if err != nil {
			return
		}
		// Close immediately without reading the client's data.
		c.Close(tt)
		// A second connection must still be admittable even though the
		// first connection's SEND+CLOSE sit ahead of it in the sequence.
		c2, err := l.Accept(tt)
		if err != nil {
			return
		}
		buf := make([]byte, 16)
		c2.Recv(tt, buf)
		c2.Close(tt)
		close(done)
	}})
	h.inject(&seq.Entry{Index: 1, Kind: seq.KindBubble, NClock: 50})
	h.inject(&seq.Entry{Index: 2, Kind: seq.KindConnect, Conn: 5, Port: 1})
	h.inject(&seq.Entry{Index: 3, Kind: seq.KindSend, Conn: 5, Data: []byte("never read")})
	h.inject(&seq.Entry{Index: 4, Kind: seq.KindClose, Conn: 5})
	h.inject(&seq.Entry{Index: 5, Kind: seq.KindConnect, Conn: 6, Port: 1})
	h.inject(&seq.Entry{Index: 6, Kind: seq.KindSend, Conn: 6, Data: []byte("x")})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("closed-conn entries wedged the sequence")
	}
}

// TestGateBusy reflects pending entries.
func TestGateBusy(t *testing.T) {
	h := newGateHarness(t, true)
	g := newGate(h.r, true)
	if g.BusyLane(0) {
		t.Fatal("BusyLane(0) on empty sequence")
	}
	h.inject(&seq.Entry{Index: 1, Kind: seq.KindBubble, NClock: 1})
	if !g.BusyLane(0) {
		t.Fatal("not BusyLane(0) with pending entry")
	}
}

// TestGateWtimeoutOnTime: on an idle cluster the primary's gate meets an empty
// sequence once per starvation round, and the deadline that turns W_timeout
// into a bubble request must run when it was armed for — not a millisecond
// later, which is what a runtime timer does once every P is idle.
func TestGateWtimeoutOnTime(t *testing.T) {
	c, err := StartCluster(testConfig(ModeCrane), rearmServer(false)) // W_timeout 200µs, no client ever connects
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	p := currentPrimary(t, c)
	const rounds = 200
	waitFor(t, 30*time.Second, "starvation rounds on the primary", func() bool {
		return p.ro.bubbleReqs.Value() >= rounds && p.ro.wtimeoutLate.Count() >= rounds
	})
	p50 := p.ro.wtimeoutLate.Quantile(0.5)
	t.Logf("gate_wtimeout_lateness_seconds over %d deadline wake-ups (%d bubble requests): p50 %v, p99 %v",
		p.ro.wtimeoutLate.Count(), p.ro.bubbleReqs.Value(), p50, p.ro.wtimeoutLate.Quantile(0.99))
	if runtime.GOOS == "linux" && p50 >= 500*time.Microsecond {
		t.Errorf("W_timeout deadline ran %v late at the median, want under 500µs", p50)
	}
}

// TestGateTimerStoppedOnExit: a gate waiting on an empty sequence holds one
// deadline, and gives it back however the wait ends.
func TestGateTimerStoppedOnExit(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(h *gateHarness)
	}{
		// A bubble ends the wait. The server keeps operating, so the bubble
		// is ticked a clock at a time, never runs out, and nobody waits
		// again.
		{"wake", func(h *gateHarness) {
			h.inject(&seq.Entry{Index: 1, Kind: seq.KindBubble, NClock: 1 << 40})
		}},
		{"kill", func(h *gateHarness) {
			h.proc.Kill()
			h.proc.Wait()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := hrtimer.Pending()
			h := newGateHarness(t, true)
			h.r.cfg.Wtimeout = time.Hour // the deadline stays pending for as long as the wait lasts
			h.proc.Start(papi.FuncInstance{Main: func(tt papi.T) {
				m := tt.NewMutex()
				m.Lock(tt) // blocks in the gate: the sequence is empty
				for {
					m.Unlock(tt)
					m.Lock(tt)
				}
			}})
			waitFor(t, 5*time.Second, "the gate to arm its deadline", func() bool {
				return hrtimer.Pending() == base+1
			})
			tc.end(h)
			waitFor(t, 5*time.Second, "the gate to stop its deadline", func() bool {
				return hrtimer.Pending() == base
			})
		})
	}
}
