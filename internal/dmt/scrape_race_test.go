package dmt

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"crane/internal/obs"
)

// TestMetricsScrapeDuringHotLoop is the regression test for the
// atomic-counter move: Stats(), ClockFast(), Killed(), and the obs GaugeFuncs
// read lock-free mirrors, so a /metrics scrape must be safe — and clean
// under -race — while the scheduler is ticking flat out. The mirrors for
// tokenPasses/waits/signals are published at schedule boundaries and every
// 32nd tick, so the test asserts presence and monotonicity, not exact
// mid-run values.
func TestMetricsScrapeDuringHotLoop(t *testing.T) {
	reg := obs.NewRegistry()
	s := New()
	s.SetObs(reg)
	srv, err := obs.StartServer("127.0.0.1:0", reg, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The workload threads loop until Kill unwinds them through the
	// scheduler's own teardown path (killedPanic recovered by Spawn).
	var m Mutex
	var c Cond
	s.Spawn(nil, "spinner", func(th *Thread) {
		for {
			th.GetTurn()
			th.PutTurn()
		}
	})
	s.Spawn(nil, "locker", func(th *Thread) {
		for {
			th.Lock(&m)
			th.CondSignal(&c)
			th.Unlock(&m)
		}
	})
	s.Spawn(nil, "waiter", func(th *Thread) {
		for {
			th.Lock(&m)
			th.CondWait(&c, &m)
			th.Unlock(&m)
		}
	})

	url := "http://" + srv.Addr() + "/metrics"
	var lastClock uint64
	deadline := time.Now().Add(300 * time.Millisecond)
	scrapes := 0
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape: status %d", resp.StatusCode)
		}
		for _, name := range []string{"dmt_clock", "dmt_token_passes_total", "dmt_waits_total", "dmt_runq_len"} {
			if !strings.Contains(string(body), name) {
				t.Fatalf("scrape missing %s:\n%s", name, body)
			}
		}
		// The unlocked read paths the gauges use must also be safe to call
		// directly from a foreign goroutine.
		st := s.Stats()
		if st.Clock < lastClock {
			t.Fatalf("clock went backwards: %d -> %d", lastClock, st.Clock)
		}
		lastClock = st.Clock
		_ = s.ClockFast()
		_ = s.Killed()
		scrapes++
	}
	s.Kill()
	s.Join()
	if scrapes == 0 {
		t.Fatal("no scrapes completed")
	}
	if lastClock == 0 {
		t.Fatal("scheduler never ticked during scrapes")
	}
}
