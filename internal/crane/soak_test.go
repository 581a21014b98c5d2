package crane

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"crane/internal/apps/clients"
	"crane/internal/trace"
)

// TestSoakMixedWorkload drives a sustained randomized mixed workload
// (sets, gets, deletes from rotating clients) against a full CRANE cluster
// and then requires byte-identical replica outputs and a consistent final
// state. Skipped with -short.
func TestSoakMixedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	c, err := StartCluster(testConfig(ModeCrane), newTestKV(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	dumpJournalsForCI(t, c, "soak-mixed-workload")

	const (
		conns    = 4
		requests = 15 // per client
	)
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(ci) + 99))
			for r := 0; r < requests; r++ {
				key := fmt.Sprintf("k%d", rng.Intn(6))
				var req string
				switch rng.Intn(3) {
				case 0:
					req = fmt.Sprintf("SET %s v%d-%d\n", key, ci, r)
				case 1:
					req = fmt.Sprintf("GET %s\n", key)
				default:
					req = fmt.Sprintf("DEL %s\n", key)
				}
				resp, err := clients.Request(c.Dial, fmt.Sprintf("soak%d:%d", ci, r), 7000, []byte(req), clients.UntilLine)
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %w", ci, r, err)
					return
				}
				s := strings.TrimSpace(string(resp))
				if !strings.HasPrefix(s, "OK") && !strings.HasPrefix(s, "VALUE") && s != "NONE" {
					errs <- fmt.Errorf("client %d req %d: resp %q", ci, r, s)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := c.WaitQuiescent(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if divs := trace.DiffAll(c.OutputLogs()); len(divs) != 0 {
		t.Fatalf("soak divergence: %v", divs)
	}
	assertNoDivergenceAlarms(t, c)
	// Final app state identical across replicas.
	ref := c.Replica(0).inst.(*testKV)
	ref.mu.Lock()
	want := fmt.Sprintf("%v", ref.data)
	ref.mu.Unlock()
	for i := 1; i < c.Replicas(); i++ {
		r := c.Replica(i).inst.(*testKV)
		r.mu.Lock()
		got := fmt.Sprintf("%v", r.data)
		r.mu.Unlock()
		if got != want {
			t.Fatalf("replica%d state %s != %s", i, got, want)
		}
	}
}
