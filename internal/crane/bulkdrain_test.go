package crane

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"crane/internal/apps/clients"
	"crane/internal/apps/httpd"
	"crane/internal/apps/mysqld"
	"crane/internal/cfs"
	"crane/internal/obs/flight"
	"crane/internal/papi"
	"crane/internal/seq"
)

// assertLaneSchedulesAgree waits for every replica to finish executing the
// committed input, then asserts the cross-replica contract the tentpole
// must not disturb: equal per-lane and merged ScheduleSums, equal
// per-connection output streams, agreeing flight journals, no audit alarm.
func assertLaneSchedulesAgree(t *testing.T, c *Cluster, lanes int) {
	t.Helper()
	if err := c.WaitQuiescent(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitLanesSettled(t, c, 0)
	ref := c.Replica(0)
	for i := 1; i < c.Replicas(); i++ {
		r := c.Replica(i)
		for lane := 0; lane < lanes; lane++ {
			got, want := r.pproc.Sched.LaneStats(lane).ScheduleSum, ref.pproc.Sched.LaneStats(lane).ScheduleSum
			if got != want {
				t.Errorf("replica %d lane %d ScheduleSum %#x != replica 0 %#x", i, lane, got, want)
			}
		}
		if got, want := r.pproc.Sched.Stats().ScheduleSum, ref.pproc.Sched.Stats().ScheduleSum; got != want {
			t.Errorf("replica %d merged ScheduleSum %#x != replica 0 %#x", i, got, want)
		}
		if !reflect.DeepEqual(perConnOutputs(r.Outputs()), perConnOutputs(ref.Outputs())) {
			t.Errorf("replica %d per-connection outputs diverge from replica 0", i)
		}
		if d := flight.FirstDivergence(dumpJournal(t, ref), dumpJournal(t, r)); d != nil {
			t.Errorf("lane journals diverge (replica 0 vs %d): %+v", i, d)
		}
	}
	for i := 0; i < c.Replicas(); i++ {
		for _, a := range c.Replica(i).DivergenceAlarms() {
			// The whole-log output fingerprint orders outputs across lanes by
			// physical time, so it is only meaningful at one lane; the lane
			// journal chains are per lane and always are.
			if lanes == 1 || a.Kind != "output-mismatch" {
				t.Errorf("replica %d raised %v", i, a)
			}
		}
	}
}

// assertIdleBubbleCostsOneTurn is the perf property as a count: on an idle
// server every committed bubble costs a lane a small constant number of
// token passes (one turn drains it), not one pass per granted clock.
func assertIdleBubbleCostsOneTurn(t *testing.T, c *Cluster, lanes int) {
	t.Helper()
	p := currentPrimary(t, c)
	type snap struct{ passes, bubbles, clocks uint64 }
	take := func(lane int) snap {
		st := p.sqs[lane].Stats()
		return snap{p.pproc.Sched.LaneStats(lane).TokenPasses, st.Bubbles, st.BubbleClocks}
	}
	for lane := 0; lane < lanes; lane++ {
		s0 := take(lane)
		var s1 snap
		waitFor(t, 10*time.Second, "idle bubbles", func() bool {
			s1 = take(lane)
			return s1.bubbles-s0.bubbles >= 20
		})
		bubbles, passes, clocks := s1.bubbles-s0.bubbles, s1.passes-s0.passes, s1.clocks-s0.clocks
		if passes > 4*bubbles {
			t.Errorf("lane %d idle: %d token passes for %d bubbles (%d clocks): a bubble must cost a turn, not a turn per clock",
				lane, passes, bubbles, clocks)
		}
		if clocks < 10*bubbles {
			t.Fatalf("lane %d: %d clocks over %d bubbles — bubbles too small for the count to mean anything", lane, clocks, bubbles)
		}
	}
	bulk, bulkClocks := p.ro.bulkBubbles.Value(), p.ro.bulkClocks.Value()
	if bulk == 0 || bulkClocks < bulk {
		t.Errorf("gate_bubbles_bulk_drained_total=%d gate_bubble_clocks_bulk_total=%d: the O(1) path never ran", bulk, bulkClocks)
	}
	if total := p.SeqStats().BubbleClocks; bulkClocks > total {
		t.Errorf("bulk-drained clocks %d exceed all consumed bubble clocks %d", bulkClocks, total)
	}
}

// TestBulkDrainMySQLOneLane: 3 replicas, 2 concurrent sysbench clients, the
// default one-lane pipeline — bulk exhaustion and the event-driven gate keep
// the replicas' schedules identical and make an idle bubble cost one turn.
func TestBulkDrainMySQLOneLane(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster workload in -short mode")
	}
	mcfg := mysqld.DefaultConfig()
	mcfg.Workers = 8
	ccfg := integrationConfig(ModeCrane)
	c, err := StartCluster(ccfg, mysqld.Program(mcfg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := clients.SysBenchPrepare(c.Dial, "prep:1", 3306, 20); err != nil {
		t.Fatal(err)
	}
	if sum := clients.SysBench(c.Dial, 3306, 20, 2, 30); sum.Errors != 0 {
		t.Fatalf("sysbench: %+v", sum)
	}
	assertLaneSchedulesAgree(t, c, 1)
	assertIdleBubbleCostsOneTurn(t, c, 1)
}

// TestBulkDrainApacheTwoLanes is the same contract with two execution
// lanes: each lane's idle thread drains its own bubble clones, and the
// cross-lane merge stamps (consumption positions) still agree.
func TestBulkDrainApacheTwoLanes(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster workload in -short mode")
	}
	hcfg := httpd.DefaultConfig()
	hcfg.Workers = 8
	hcfg.PHPChunks = 3
	hcfg.PHPChunkWork = 30
	hcfg.CacheEnabled = false
	ccfg := integrationConfig(ModeCrane)
	ccfg.Lanes = 2
	c, err := StartCluster(ccfg, httpd.Program(hcfg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if sum := clients.ApacheBench(c.Dial, 8080, "/page0.php", 2, 16); sum.Errors != 0 {
		t.Fatalf("ab: %+v", sum)
	}
	assertLaneSchedulesAgree(t, c, 2)
	assertIdleBubbleCostsOneTurn(t, c, 2)
}

// TestBulkDrainSpeculativeBubbleRollsBack: a stranded primary keeps granting
// itself speculative time, and its idle thread bulk-drains those speculative
// bubbles like any other. The abort must still see them as consumed
// speculation (SpecConsumed counts every drained clock) and fail-stop the
// replica, which converges with the survivors after RestartReplica.
func TestBulkDrainSpeculativeBubbleRollsBack(t *testing.T) {
	c, err := StartCluster(specClusterConfig(t), httpd.Program(detHTTPDConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	waitScheduleStable(t, c)
	old := forceSpecAbort(t, c, "BULKDRAIN-CANARY")
	// Partitioned, nothing commits on the stranded primary: every bubble its
	// gate drains from here on is a speculative one.
	stranded := c.Replica(old)
	// gate.drainBubble moves SpecConsumed (inside seq.DrainBubble) before
	// bulkClocks, so the baseline reads them in that order: a drain landing
	// between the reads then counts in neither delta or in SpecConsumed's only.
	spec0 := stranded.sqs[0].SpecConsumed()
	bulk0 := stranded.ro.bulkClocks.Value()
	waitFor(t, 5*time.Second, "a bulk-drained speculative bubble", func() bool {
		return stranded.ro.bulkClocks.Value() > bulk0
	})
	if drained, spec := stranded.ro.bulkClocks.Value()-bulk0, stranded.sqs[0].SpecConsumed()-spec0; spec < drained {
		t.Fatalf("bulk-drained %d speculative clocks but SpecConsumed moved only %d", drained, spec)
	}

	resp, err := clients.Request(newPrimary(t, c, old), "nb:1", 8080, []byte(indexGET), untilClose)
	if !bytes.Contains(resp, []byte("It works!")) {
		t.Fatalf("new primary response: %q, %v", resp, err)
	}
	healAndRestart(t, c, old, "BULKDRAIN-CANARY")
}

// rearmServer is the smallest program that puts a socket wrapper behind a
// gate-side pop: one thread accepts two connections, reads one byte from
// the first, optionally answers and closes it, then reads the second.
func rearmServer(closeFirst bool) papi.Program {
	return papi.Program{
		Name:  "rearm",
		Ports: []int{7100},
		New: func(*cfs.FS) papi.Instance {
			return papi.FuncInstance{Main: func(t papi.T) {
				l, err := t.Listen(7100)
				if err != nil {
					return
				}
				c1, err1 := l.Accept(t)
				c2, err2 := l.Accept(t)
				if err1 != nil || err2 != nil {
					return
				}
				c1.Recv(t, make([]byte, 1))
				if closeFirst {
					c1.Send(t, []byte("k"))
					c1.Close(t)
				}
				c2.Recv(t, make([]byte, 8))
			}}
		},
	}
}

// TestGateRearmAfterGatePop is the regression test for the determinism race
// behind the occasional chain-mismatch on mysql_oltp. When the gate popped an
// entry itself — the CLOSE of a connection the server had already closed, or
// a bubble's last clock — it returned at once, and the socket wrapper running
// next (recv's ReadInto) looked at a sequence whose emptiness was physical
// timing: where the following SEND had arrived it was consumed at that
// clock, where it had not the thread ticked a wait and consumed it later.
// The wrappers now read only what the gate filed, so the race has no place
// left to happen; the choreography stays to keep it that way.
//
// W_timeout is 10 s, so no starvation round ever runs — which does not mean no
// bubble: a tail bubble rides the burst of a SEND that finds the pipeline idle
// whatever W_timeout is, as the first SEND here does. The hooks therefore drop
// every committed bubble, alike on all replicas, and key on the previous
// client call, so the only bubbles in play are the ones they fabricate and
// every operation is admitted against a client entry or one of those. Two
// replicas deliver the entry under test glued to the SEND behind it; one
// backup delivers the SEND 5 ms late.
func TestGateRearmAfterGatePop(t *testing.T) {
	for _, tc := range []struct {
		name       string
		closeFirst bool
		consumed   uint64 // client calls every replica has consumed at the end
	}{
		// Client writes "xzz" on conn 1; the server reads "x", answers and
		// closes, which discards the filed "zz" remainder. The CLOSE the
		// proxy proposes for conn 1 is filed and dropped.
		{"closed-conn close", true, 5},
		// No close. The hooks put a 2-clock bubble (the same on every
		// replica) between the two SENDs: the idle thread ticks one clock,
		// the recv on conn 2 ticks the last.
		{"bubble last clock", false, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(ModeCrane)
			cfg.Wtimeout = 10 * time.Second
			c, err := StartCluster(cfg, rearmServer(tc.closeFirst))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			p := currentPrimary(t, c)
			slow := c.Replica((p.ID() + 1) % c.Replicas())
			for i := 0; i < c.Replicas(); i++ {
				r := c.Replica(i)
				// Hook state is touched only by the delivery goroutine.
				var held *seq.Entry
				var prev seq.Kind // kind of the previous client call
				glued := false
				bubble := func(after *seq.Entry) *seq.Entry {
					return &seq.Entry{Kind: seq.KindBubble, NClock: 2, Index: after.Index}
				}
				r.SetMangleDeliver(func(e *seq.Entry) []*seq.Entry {
					if e.Kind == seq.KindBubble {
						return nil
					}
					defer func() { prev = e.Kind }()
					switch {
					case tc.closeFirst && e.Kind == seq.KindSend && prev == seq.KindConnect:
						// The gate files "xzz" whole, so the server's answer
						// and close need clocks of their own: glue them on.
						return []*seq.Entry{e, {Kind: seq.KindBubble, NClock: 8, Index: e.Index}}
					case tc.closeFirst && r == slow:
						if prev == seq.KindClose {
							time.Sleep(5 * time.Millisecond)
						}
					case tc.closeFirst:
						if e.Kind == seq.KindClose && !glued {
							glued = true
							held = e
							return nil
						}
						if held != nil {
							h := held
							held = nil
							return []*seq.Entry{h, e}
						}
					case r == slow:
						if e.Kind == seq.KindSend && prev == seq.KindConnect {
							return []*seq.Entry{e, bubble(e)}
						}
						if e.Kind == seq.KindSend {
							time.Sleep(5 * time.Millisecond)
						}
					default:
						if e.Kind == seq.KindSend && prev == seq.KindSend {
							return []*seq.Entry{bubble(e), e}
						}
					}
					return []*seq.Entry{e}
				})
			}

			d1, err := c.Dial("rearm:1", 7100)
			if err != nil {
				t.Fatal(err)
			}
			defer d1.Close()
			d2, err := c.Dial("rearm:2", 7100)
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			// Both CONNECTs are ordered before any SEND is proposed.
			waitFor(t, 5*time.Second, "both connects committed", func() bool {
				return p.sqs[0].Stats().ClientCalls >= 2
			})
			if tc.closeFirst {
				if _, err := d1.Write([]byte("xzz")); err != nil {
					t.Fatal(err)
				}
				d1.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := d1.Read(make([]byte, 1)); err != nil {
					t.Fatalf("read the server's answer on conn 1: %v", err)
				}
			} else if _, err := d1.Write([]byte("x")); err != nil {
				t.Fatal(err)
			}
			// Let the entry under test commit (and be held) before the SEND
			// that follows it is even proposed.
			time.Sleep(3 * time.Millisecond)
			if _, err := d2.Write([]byte("y")); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 5*time.Second, "every replica consumed the second SEND", func() bool {
				for i := 0; i < c.Replicas(); i++ {
					if c.Replica(i).sqs[0].Stats().Consumed < tc.consumed {
						return false
					}
				}
				return true
			})
			// The client's closes let the idle thread pass its turn, so the
			// server thread's exit is admitted on every replica.
			d1.Close()
			d2.Close()
			for i := 0; i < c.Replicas(); i++ {
				c.Replica(i).pproc.WaitMain()
			}

			ref := c.Replica(0)
			for i := 1; i < c.Replicas(); i++ {
				r := c.Replica(i)
				if got, want := r.pproc.Sched.Stats(), ref.pproc.Sched.Stats(); got.ScheduleSum != want.ScheduleSum {
					t.Errorf("replica %d ScheduleSum %#x (clock %d) != replica 0 %#x (clock %d)",
						i, got.ScheduleSum, got.Clock, want.ScheduleSum, want.Clock)
				}
				if d := flight.FirstDivergence(dumpJournal(t, ref), dumpJournal(t, r)); d != nil {
					t.Errorf("lane journals diverge (replica 0 vs %d): %+v", i, d)
				}
			}
			assertNoDivergenceAlarms(t, c)
		})
	}
}

// TestGateRearmUnwindsOnKill: token holders blocked in the gate's
// empty-sequence wait must unwind when the scheduler is killed. W_timeout is
// an hour and nothing is ever enqueued, so only the kill channel can end
// the wait.
func TestGateRearmUnwindsOnKill(t *testing.T) {
	h := newGateHarness(t, true)
	h.r.cfg.Wtimeout = time.Hour
	entered := make(chan struct{})
	h.proc.Start(papi.FuncInstance{Main: func(tt papi.T) {
		close(entered)
		m := tt.NewMutex()
		m.Lock(tt) // never admitted: the sequence stays empty
	}})
	<-entered
	done := make(chan struct{})
	go func() {
		h.proc.Kill()
		h.proc.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Kill did not unwind the gate's empty-sequence wait")
	}
}
