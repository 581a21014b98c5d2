package crane

import (
	"fmt"
	"testing"
	"time"

	"crane/internal/trace"
)

// TestFiveReplicaCluster deploys the paper's alternative group size ("a
// set of three or five replicas", §2) and verifies consistency and
// tolerance of two failures.
func TestFiveReplicaCluster(t *testing.T) {
	cfg := testConfig(ModeCrane)
	cfg.Replicas = 5
	c, err := StartCluster(cfg, newTestKV(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	dumpJournalsForCI(t, c, "five-replica")
	for i := 0; i < 5; i++ {
		if got := kvRequest(t, c, fmt.Sprintf("f5:%d", i), fmt.Sprintf("SET k%d v%d", i, i)); got != "OK" {
			t.Fatalf("SET = %q", got)
		}
	}
	if err := c.WaitQuiescent(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if divs := trace.DiffAll(c.OutputLogs()); len(divs) != 0 {
		t.Fatalf("5-replica divergence: %v", divs)
	}
	assertNoDivergenceAlarms(t, c)
	// Fail two backups; the remaining three still serve.
	p, _ := c.Primary()
	killed := 0
	for i := 0; i < c.Replicas() && killed < 2; i++ {
		if c.Replica(i) != p {
			c.FailReplica(i)
			killed++
		}
	}
	if got := kvRequest(t, c, "f5:99", "GET k0"); got != "VALUE v0" {
		t.Fatalf("GET after two failures = %q", got)
	}
}
