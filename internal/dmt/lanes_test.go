package dmt

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// runLanesProgram starts a scheduler with n lanes, runs bodies[lane] in
// each lane, waits for all of them, and returns the root for inspection.
// Every spawn is a scheduled operation: a main thread bootstraps one
// lane-main per lane, and each lane-main spawns its lane's threads in-lane
// and joins them. Callers must Kill+Join the returned scheduler.
func runLanesProgram(t *testing.T, n int, bodies [][]func(*Thread)) *Scheduler {
	t.Helper()
	s := New()
	s.SetLanes(n)
	laneMains := make([]*Thread, len(bodies))
	main := s.StartMain("main", func(m *Thread) {
		for lane, fns := range bodies {
			lane, fns := lane, fns
			laneMains[lane] = s.SpawnLane(m, lane, fmt.Sprintf("l%dmain", lane), func(lm *Thread) {
				threads := make([]*Thread, len(fns))
				for i, body := range fns {
					threads[i] = s.Spawn(lm, fmt.Sprintf("l%dt%d", lane, i), body)
				}
				for _, th := range threads {
					lm.Join(th)
				}
			})
		}
	})
	done := make(chan struct{})
	go func() {
		waitDone(s, main)
		for _, lm := range laneMains {
			waitDone(lm.s, lm)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("lanes program did not finish")
	}
	return s
}

func TestLanesPartitionedMutexes(t *testing.T) {
	const lanes, perLane, iters = 4, 3, 50
	mus := make([]*Mutex, lanes)
	counts := make([]int, lanes)
	for i := range mus {
		mus[i] = &Mutex{}
		mus[i].BindLane(i)
	}
	bodies := make([][]func(*Thread), lanes)
	for lane := 0; lane < lanes; lane++ {
		lane := lane
		for j := 0; j < perLane; j++ {
			bodies[lane] = append(bodies[lane], func(th *Thread) {
				if th.LaneID() != lane {
					t.Errorf("thread spawned into lane %d runs in lane %d", lane, th.LaneID())
				}
				for i := 0; i < iters; i++ {
					th.Lock(mus[lane])
					counts[lane]++
					th.Unlock(mus[lane])
				}
			})
		}
	}
	s := runLanesProgram(t, lanes, bodies)
	defer func() { s.Kill(); s.Join() }()
	if got := s.Lanes(); got != lanes {
		t.Fatalf("Lanes() = %d, want %d", got, lanes)
	}
	for lane, c := range counts {
		if c != perLane*iters {
			t.Errorf("lane %d count = %d, want %d", lane, c, perLane*iters)
		}
	}
	for lane := 0; lane < lanes; lane++ {
		if st := s.LaneStats(lane); st.Spawned < perLane {
			t.Errorf("lane %d spawned = %d, want >= %d", lane, st.Spawned, perLane)
		}
	}
}

func TestLanesCrossMutex(t *testing.T) {
	const lanes, perLane, iters = 3, 2, 40
	var m Mutex // unbound: cross-lane when lanes > 1
	var inside, maxInside int32
	counter := 0
	bodies := make([][]func(*Thread), lanes)
	for lane := 0; lane < lanes; lane++ {
		for j := 0; j < perLane; j++ {
			bodies[lane] = append(bodies[lane], func(th *Thread) {
				for i := 0; i < iters; i++ {
					th.Lock(&m)
					v := atomic.AddInt32(&inside, 1)
					if v > atomic.LoadInt32(&maxInside) {
						atomic.StoreInt32(&maxInside, v)
					}
					counter++
					atomic.AddInt32(&inside, -1)
					th.Unlock(&m)
				}
			})
		}
	}
	s := runLanesProgram(t, lanes, bodies)
	defer func() { s.Kill(); s.Join() }()
	if counter != lanes*perLane*iters {
		t.Fatalf("counter = %d, want %d", counter, lanes*perLane*iters)
	}
	if maxInside != 1 {
		t.Fatalf("max threads inside cross critical section = %d", maxInside)
	}
}

func TestLanesCrossRWMutex(t *testing.T) {
	const lanes = 3
	var rw RWMutex // unbound: cross-lane
	shared := 0
	var readersSawTorn atomic.Bool
	bodies := make([][]func(*Thread), lanes)
	for lane := 0; lane < lanes; lane++ {
		bodies[lane] = append(bodies[lane], func(th *Thread) {
			for i := 0; i < 25; i++ {
				th.WLock(&rw)
				shared++
				shared++ // torn reads would observe an odd value
				th.WUnlock(&rw)
			}
		})
		bodies[lane] = append(bodies[lane], func(th *Thread) {
			for i := 0; i < 25; i++ {
				th.RLock(&rw)
				if shared%2 != 0 {
					readersSawTorn.Store(true)
				}
				th.RUnlock(&rw)
			}
		})
	}
	s := runLanesProgram(t, lanes, bodies)
	defer func() { s.Kill(); s.Join() }()
	if shared != lanes*25*2 {
		t.Fatalf("shared = %d, want %d", shared, lanes*25*2)
	}
	if readersSawTorn.Load() {
		t.Fatal("reader observed a torn write under cross-lane RWMutex")
	}
}

// laneWorkload is a fixed 4-lane program whose per-lane schedules must be
// reproducible run to run: in-lane mutex/cond traffic plus a shared
// cross-lane mutex touched from every lane.
func laneWorkload(t *testing.T) []Stats {
	t.Helper()
	const lanes, perLane, iters = 4, 3, 30
	var cross Mutex
	mus := make([]*Mutex, lanes)
	for i := range mus {
		mus[i] = &Mutex{}
		mus[i].BindLane(i)
	}
	bodies := make([][]func(*Thread), lanes)
	for lane := 0; lane < lanes; lane++ {
		lane := lane
		for j := 0; j < perLane; j++ {
			bodies[lane] = append(bodies[lane], func(th *Thread) {
				for i := 0; i < iters; i++ {
					th.Lock(mus[lane])
					th.Unlock(mus[lane])
					if i%5 == 0 {
						th.Lock(&cross)
						th.Unlock(&cross)
					}
				}
			})
		}
	}
	s := runLanesProgram(t, lanes, bodies)
	defer func() { s.Kill(); s.Join() }()
	out := make([]Stats, 0, lanes+1)
	for lane := 0; lane < lanes; lane++ {
		out = append(out, s.LaneStats(lane))
	}
	out = append(out, s.Stats())
	return out
}

func TestLanesScheduleDeterminism(t *testing.T) {
	base := laneWorkload(t)
	for run := 1; run < 3; run++ {
		got := laneWorkload(t)
		for i := range base {
			label := fmt.Sprintf("lane %d", i)
			if i == len(base)-1 {
				label = "merged"
			}
			if got[i].ScheduleSum != base[i].ScheduleSum {
				t.Errorf("run %d: %s ScheduleSum = %#x, want %#x",
					run, label, got[i].ScheduleSum, base[i].ScheduleSum)
			}
			if got[i].Clock != base[i].Clock && i < len(base)-1 {
				// Per-lane logical clocks include idle ticks, which are
				// timing-dependent without a gate; only the hashed schedule
				// (non-idle ops) must match.
				continue
			}
		}
	}
}

// expectPanic runs fn on a thread in the given lane and verifies it panics
// with a message containing want.
func expectPanic(t *testing.T, lanes int, lane int, want string, fn func(*Thread)) {
	t.Helper()
	var msg atomic.Value
	bodies := make([][]func(*Thread), lanes)
	bodies[lane] = []func(*Thread){func(th *Thread) {
		defer func() {
			if r := recover(); r != nil {
				msg.Store(fmt.Sprint(r))
			}
		}()
		fn(th)
	}}
	s := runLanesProgram(t, lanes, bodies)
	defer func() { s.Kill(); s.Join() }()
	got, _ := msg.Load().(string)
	if !strings.Contains(got, want) {
		t.Fatalf("panic = %q, want substring %q", got, want)
	}
}

func TestLaneBoundMutexWrongLane(t *testing.T) {
	var m Mutex
	m.BindLane(0)
	expectPanic(t, 2, 1, "bound to lane 0 used from lane 1", func(th *Thread) {
		th.Lock(&m)
	})
}

func TestCrossCondWaitPanics(t *testing.T) {
	var m Mutex
	var c Cond
	m.BindLane(1)
	expectPanic(t, 2, 1, "lane-bound Cond", func(th *Thread) {
		th.Lock(&m)
		th.CondWait(&c, &m)
	})
}

func TestCrossJoinPanics(t *testing.T) {
	s := New()
	s.SetLanes(2)
	defer func() { s.Kill(); s.Join() }()
	var msg atomic.Value
	// The main thread runs in lane 0 and joins a thread of lane 1.
	joiner := s.StartMain("joiner", func(th *Thread) {
		defer func() {
			if r := recover(); r != nil {
				msg.Store(fmt.Sprint(r))
			}
		}()
		victim := s.SpawnLane(th, 1, "victim", func(th *Thread) {
			for !th.s.killedA.Load() {
				th.GetTurn()
				th.Admit()
				th.PutTurn()
			}
		})
		th.Join(victim)
	})
	waitDone(joiner.s, joiner)
	got, _ := msg.Load().(string)
	if !strings.Contains(got, "cross-lane Join") {
		t.Fatalf("panic = %q, want cross-lane Join", got)
	}
}

func TestSetLanesGuards(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	s1 := New()
	s1.Start()
	mustPanic("after Start", func() { s1.SetLanes(2) })
	s1.Kill()
	s1.Join()

	s2 := New()
	s2.SetLanes(2)
	mustPanic("twice", func() { s2.SetLanes(2) })

	s4 := New()
	s4.SetLanes(1) // no-op: single lane stays the pre-lane configuration
	if s4.Lanes() != 1 || s4.cross != nil {
		t.Fatal("SetLanes(1) must leave the single-token configuration untouched")
	}
}

func TestLanesThreadIDStriping(t *testing.T) {
	const lanes = 4
	ids := make([][]int, lanes)
	bodies := make([][]func(*Thread), lanes)
	var mu Mutex // cross, serializes appends
	for lane := 0; lane < lanes; lane++ {
		lane := lane
		for j := 0; j < 2; j++ {
			bodies[lane] = append(bodies[lane], func(th *Thread) {
				th.Lock(&mu)
				ids[lane] = append(ids[lane], th.ID())
				th.Unlock(&mu)
			})
		}
	}
	s := runLanesProgram(t, lanes, bodies)
	defer func() { s.Kill(); s.Join() }()
	seen := map[int]bool{}
	for lane, laneIDs := range ids {
		for _, id := range laneIDs {
			if id%lanes != lane {
				t.Errorf("thread id %d in lane %d: want id %% %d == lane", id, lane, lanes)
			}
			if seen[id] {
				t.Errorf("duplicate thread id %d", id)
			}
			seen[id] = true
		}
	}
}

// TestLanesScheduleGolden pins the per-lane and merged ScheduleSums of the
// fixed 4-lane workload to a golden recording: any change to lane rotation,
// merge stamping, or hash folding shows up as a diff. Regenerate after an
// intentional schedule change with
//
//	CRANE_REGOLDEN=1 go test ./internal/dmt -run TestLanesScheduleGolden
func TestLanesScheduleGolden(t *testing.T) {
	stats := laneWorkload(t)
	var b strings.Builder
	for i, st := range stats {
		if i == len(stats)-1 {
			fmt.Fprintf(&b, "merged %#x\n", st.ScheduleSum)
		} else {
			fmt.Fprintf(&b, "lane%d %#x\n", i, st.ScheduleSum)
		}
	}
	got := b.String()
	goldenPath := filepath.Join("testdata", "lanes_schedule.golden")
	if os.Getenv("CRANE_REGOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s:\n%s", goldenPath, got)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with CRANE_REGOLDEN=1): %v", err)
	}
	if string(want) != got {
		t.Fatalf("lane schedules diverged from golden\n got:\n%s\nwant:\n%s", got, want)
	}
}
