package dmt

import (
	"fmt"
	"testing"
	"time"
)

// recordRun executes a 3-worker counter program while recording, returning
// the schedule, the schedule hash, and the per-thread interleaving trace.
func recordRun(t *testing.T) (*Schedule, uint64, []string) {
	t.Helper()
	s := New()
	sched := s.StartRecording()
	var m Mutex
	var traceLog []string
	done := make(chan struct{})
	var ths []*Thread
	root := s.StartMain("root", func(root *Thread) {
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("w%d", i)
			ths = append(ths, s.Spawn(root, name, func(th *Thread) {
				for j := 0; j < 10; j++ {
					th.Lock(&m)
					traceLog = append(traceLog, fmt.Sprintf("%s:%d", th.Name(), j))
					th.Unlock(&m)
				}
			}))
		}
		for _, th := range ths {
			root.Join(th)
		}
	})
	go func() {
		waitDoneRaw(s, root)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("recording run hung")
	}
	h := s.Stats().ScheduleSum
	s.Kill()
	s.Join()
	return sched, h, traceLog
}

// TestReplayReproducesSchedule: replaying a recorded schedule yields the
// identical schedule hash and identical application-level interleaving.
func TestReplayReproducesSchedule(t *testing.T) {
	sched, wantHash, wantTrace := recordRun(t)
	if sched.Len() == 0 {
		t.Fatal("empty recording")
	}

	s := New()
	s.SetReplay(sched)
	var m Mutex
	var traceLog []string
	done := make(chan struct{})
	var ths []*Thread
	root := s.StartMain("root", func(root *Thread) {
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("w%d", i)
			ths = append(ths, s.Spawn(root, name, func(th *Thread) {
				for j := 0; j < 10; j++ {
					th.Lock(&m)
					traceLog = append(traceLog, fmt.Sprintf("%s:%d", th.Name(), j))
					th.Unlock(&m)
				}
			}))
		}
		for _, th := range ths {
			root.Join(th)
		}
	})
	go func() {
		waitDoneRaw(s, root)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("replay run hung")
	}
	gotHash := s.Stats().ScheduleSum
	s.Kill()
	s.Join()
	if gotHash != wantHash {
		t.Fatalf("replay hash %x != recorded %x", gotHash, wantHash)
	}
	if len(traceLog) != len(wantTrace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(traceLog), len(wantTrace))
	}
	for i := range wantTrace {
		if traceLog[i] != wantTrace[i] {
			t.Fatalf("trace diverges at %d: %q vs %q", i, traceLog[i], wantTrace[i])
		}
	}
	if !s.ReplayDone() {
		t.Fatal("script not fully consumed")
	}
}

// TestReplayDivergenceDetected: replaying a schedule against a program
// that performs different operations must be detected (the scheduler
// records the divergence and unwinds), not deadlock.
func TestReplayDivergenceDetected(t *testing.T) {
	sched, _, _ := recordRun(t)

	s := New()
	s.SetReplay(sched)
	// A different program: one worker doing RWMutex ops where the script
	// expects three mutex workers.
	s.StartMain("root", func(root *Thread) {
		var rw RWMutex
		w := s.Spawn(root, "other", func(th *Thread) {
			for j := 0; j < 10; j++ {
				th.WLock(&rw)
				th.WUnlock(&rw)
			}
		})
		root.Join(w)
	})
	deadline := time.Now().Add(20 * time.Second)
	for s.ReplayError() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.ReplayError() == nil {
		t.Fatal("divergence not detected")
	}
	s.Kill()
	s.Join()
}

// TestScheduleAccessors covers Schedule's small API.
func TestScheduleAccessors(t *testing.T) {
	sc := &Schedule{}
	sc.append(7, 'P', 1)
	sc.append(8, 'W', 2)
	if sc.Len() != 2 {
		t.Fatalf("Len = %d", sc.Len())
	}
	th, op := sc.Step(1)
	if th != 8 || op != 'W' {
		t.Fatalf("Step(1) = %d, %c", th, op)
	}
}
