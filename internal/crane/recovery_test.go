package crane

import (
	"fmt"
	"testing"
	"time"

	"crane/internal/checkpoint"
)

// TestRestartReplicaReplaysWAL exercises the paper's replay-from-scratch
// recovery (§2.1): a failed replica with a surviving WAL rebuilds its
// state by re-executing the whole socket-call sequence.
func TestRestartReplicaReplaysWAL(t *testing.T) {
	cfg := testConfig(ModeCrane)
	cfg.WALDir = t.TempDir()
	c, err := StartCluster(cfg, newTestKV(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 0; i < 6; i++ {
		if got := kvRequest(t, c, fmt.Sprintf("w:%d", i), fmt.Sprintf("SET k%d v%d", i, i)); got != "OK" {
			t.Fatalf("SET = %q", got)
		}
	}
	if err := c.WaitQuiescent(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Fail a backup and restart it from its WAL alone (no checkpoint).
	p, _ := c.Primary()
	victim := -1
	for i := 0; i < c.Replicas(); i++ {
		if c.Replica(i) != p {
			victim = i
			break
		}
	}
	c.FailReplica(victim)
	time.Sleep(10 * time.Millisecond)
	if err := c.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	// The fresh instance replays the entire sequence and reconstructs the
	// full key set.
	restored := c.Replica(victim).inst.(*testKV)
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		restored.mu.Lock()
		n := len(restored.data)
		restored.mu.Unlock()
		if n == 6 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	restored.mu.Lock()
	defer restored.mu.Unlock()
	t.Fatalf("replayed replica has %d keys, want 6", len(restored.data))
}

func TestRestartReplicaRequiresWAL(t *testing.T) {
	c, err := StartCluster(testConfig(ModeCrane), newTestKV(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.FailReplica(2)
	if err := c.RestartReplica(2); err == nil {
		t.Fatal("RestartReplica without WALDir succeeded")
	}
}

// TestAnalyzeBackup exercises the REPFRAME-style analysis (§6.2): the
// lock-order checker on a backup observes the replicated execution.
func TestAnalyzeBackup(t *testing.T) {
	cfg := testConfig(ModeCrane)
	cfg.AnalyzeBackup = true
	c, err := StartCluster(cfg, newTestKV(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 0; i < 4; i++ {
		kvRequest(t, c, fmt.Sprintf("a:%d", i), fmt.Sprintf("SET x%d 1", i))
	}
	if err := c.WaitQuiescent(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	chk := c.Analysis()
	if chk == nil {
		t.Fatal("no analysis attached")
	}
	if chk.Events() == 0 {
		t.Fatal("backup analysis observed no events")
	}
	// testKV acquires its two locks in a fixed order: no inversions.
	if invs := chk.Inversions(); len(invs) != 0 {
		t.Fatalf("false lock-order inversions: %v", invs)
	}
	if chk.LockCount() < 2 {
		t.Fatalf("LockCount = %d", chk.LockCount())
	}
}

// TestDeterministicNow checks the §6.1 extension: time reads under DMT are
// logical-clock derived and therefore identical across replicas at the
// same execution point.
func TestDeterministicNow(t *testing.T) {
	prog := newTestKV(4)
	c, err := StartCluster(testConfig(ModeCrane), prog)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	kvRequest(t, c, "n:1", "SET t 1")
	// The deterministic epoch is fixed; any DMT-mode Now() is epoch+clock.
	// Verified indirectly through papi's parrot runtime in its own tests;
	// here just confirm the cluster remains consistent with Now in use.
	if err := c.WaitQuiescent(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionAfterCheckpoint: after a checkpoint, consensus logs can be
// compacted; new proposals continue and a replica restored from the
// checkpoint catches up above the compaction point.
func TestCompactionAfterCheckpoint(t *testing.T) {
	cfg := testConfig(ModeCrane)
	cfg.WALDir = t.TempDir()
	c, err := StartCluster(cfg, newTestKV(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 0; i < 6; i++ {
		if got := kvRequest(t, c, fmt.Sprintf("cp:%d", i), fmt.Sprintf("SET k%d v%d", i, i)); got != "OK" {
			t.Fatalf("SET = %q", got)
		}
	}
	if err := c.WaitQuiescent(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	cp := checkpoint.New(checkpoint.Options{Backoff: time.Millisecond})
	ck, _, err := c.CheckpointBackup(cp)
	if err != nil {
		t.Fatal(err)
	}
	c.AnchorGC(ck)
	// The cluster still serves and commits after every replica promised the
	// checkpointed prefix away; those rounds carry the promises to the
	// primary, which compacts to their minimum.
	if got := kvRequest(t, c, "cp:after", "SET post compact"); got != "OK" {
		t.Fatalf("post-compaction SET = %q", got)
	}
	if got := kvRequest(t, c, "cp:read", "GET post"); got != "VALUE compact" {
		t.Fatalf("post-compaction GET = %q", got)
	}
	p, _ := c.Primary()
	floorBy := time.Now().Add(5 * time.Second)
	for p.GroupNode(0).GCFloor() < ck.GroupIndexes[0] {
		if time.Now().After(floorBy) {
			t.Fatalf("GC floor %d never reached the checkpoint's index %d",
				p.GroupNode(0).GCFloor(), ck.GroupIndexes[0])
		}
		time.Sleep(2 * time.Millisecond)
	}
	// A replica restored from the checkpoint catches up past the
	// compacted prefix.
	victim := -1
	for i := 0; i < c.Replicas(); i++ {
		if c.Replica(i) != p {
			victim = i
			break
		}
	}
	c.FailReplica(victim)
	time.Sleep(10 * time.Millisecond)
	if err := c.RestoreReplica(victim, ck); err != nil {
		t.Fatal(err)
	}
	restored := c.Replica(victim).inst.(*testKV)
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		restored.mu.Lock()
		_, ok := restored.data["post"]
		n := len(restored.data)
		restored.mu.Unlock()
		if ok && n == 7 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("restored replica did not catch up past compaction")
}
