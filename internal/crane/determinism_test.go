package crane

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"crane/internal/apps/clients"
	"crane/internal/apps/httpd"
	"crane/internal/simnet"
)

// detHTTPDConfig is the pinned httpd deployment for the schedule-golden
// test. Everything that could perturb the deterministic schedule is fixed:
// no Date headers (they encode the logical clock, which bubbles advance at
// a physically-timed rate), no page cache warm-up variance, fixed worker
// count, serial client.
func detHTTPDConfig() httpd.Config {
	cfg := httpd.DefaultConfig()
	cfg.Workers = 4
	cfg.PHPChunks = 4
	cfg.PHPChunkWork = 200
	cfg.CacheEnabled = false
	cfg.WithDate = false
	return cfg
}

// detClusterConfig is the pinned cluster deployment for the golden test.
// Wtimeout is deliberately large relative to the client's worst-case
// commit latency (~400µs through the simnet and hub jitters): a request's
// entries (connect, send, close) must always reach the Paxos log before
// an empty-sequence bubble request can interleave with them, otherwise
// whether a worker's recv() finds its data admitted or has to block — a
// hash-visible WaitOn — becomes a physical race between the client's
// commit and the bubble timer. CRANE only promises cross-replica
// determinism; cross-run reproducibility additionally needs the committed
// log itself to be reproducible, which this margin provides.
func detClusterConfig() Config {
	return Config{
		Mode:     ModeCrane,
		Replicas: 3,
		Wtimeout: 5 * time.Millisecond,
		Nclock:   1000,
		NetOptions: simnet.Options{
			Latency: 30 * time.Microsecond,
			Jitter:  80 * time.Microsecond,
		},
		HubLatency:        20 * time.Microsecond,
		HubJitter:         50 * time.Microsecond,
		HeartbeatInterval: 30 * time.Millisecond,
	}
}

// runDetHTTPDWorkload runs a fixed serial request script against a
// 3-replica full-CRANE cluster and returns every replica's final DMT
// ScheduleSum and output fingerprint.
func runDetHTTPDWorkload(t *testing.T) (sums []uint64, fps []uint64) {
	t.Helper()
	cluster, err := StartCluster(detClusterConfig(), httpd.Program(detHTTPDConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	// Serial script: the consensus order of client calls is then the
	// script order, so every run decides the same input sequence. Before
	// the first request and between requests, wait for every replica to go
	// quiescent with a *stable* ScheduleSum: trailing worker operations
	// (connection close, re-arming the accept/recv waits) are admitted on
	// time-bubble budget, so without this wait the next connect's commit
	// position relative to those ops — and hence the fold order of the
	// hash — would depend on physical load.
	waitScheduleStable(t, cluster)
	for i := 0; i < 6; i++ {
		req := []byte(fmt.Sprintf("GET /page%d.php HTTP/1.0\r\n\r\n", i%2))
		released := holdBubbleRound(t, cluster)
		if _, err := clients.Request(cluster.Dial, fmt.Sprintf("det:%d", i), 8080, req, firstByte); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		released()
		waitScheduleStable(t, cluster)
	}
	if err := cluster.WaitOutputs(6, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := cluster.WaitQuiescent(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cluster.Replicas(); i++ {
		r := cluster.Replica(i)
		sums = append(sums, r.pproc.Sched.Stats().ScheduleSum)
		fps = append(fps, r.Outputs().Fingerprint())
	}
	return sums, fps
}

// waitScheduleStable blocks until every replica has closed all client
// connections and its ScheduleSum has not moved for a sustained window,
// i.e. all application threads are parked back on their wait keys. The
// Paxos sequence itself need not drain: an idle cluster alternates forever
// between an empty sequence and the next requested time bubble, and that
// bubble traffic is consumed by the idle thread, whose ticks are excluded
// from the hash — it is exactly the padding the hash is defined to ignore.
func waitScheduleStable(t *testing.T, cluster *Cluster) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	last := make([]uint64, cluster.Replicas())
	stable := 0
	for time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		ok := true
		for i := 0; i < cluster.Replicas(); i++ {
			r := cluster.Replica(i)
			sum := r.pproc.Sched.Stats().ScheduleSum
			if r.openConns.Load() != 0 || sum != last[i] {
				ok = false
			}
			last[i] = sum
		}
		if !ok {
			stable = 0
			continue
		}
		stable++
		if stable >= 15 { // ~30ms of no application-thread activity
			waitBubbleFreeWindow(t, cluster, deadline)
			return
		}
	}
	t.Fatal("schedule never stabilized between requests")
}

// waitBubbleFreeWindow returns inside a window where the next client
// request is guaranteed to commit without a time bubble landing between
// its connect and send entries. An idle cluster cycles forever: sequence
// empty for Wtimeout → primary proposes a bubble → grant commits → idle
// thread exhausts it → empty again. A connect arriving while a grant is in
// flight can be committed just ahead of it, putting a 1000-clock bubble
// between the connect and the data — and whether the worker's recv() then
// has to block is a hash-visible schedule difference. So: wait until the
// primary's sequence is *freshly* empty (less than half a Wtimeout since
// the last drain) with no bubble request outstanding; the next bubble
// proposal is then at least Wtimeout/2 away, far beyond the client's
// worst-case commit latency.
func waitBubbleFreeWindow(t *testing.T, cluster *Cluster, deadline time.Time) {
	t.Helper()
	var primary *Replica
	for i := 0; i < cluster.Replicas(); i++ {
		r := cluster.Replica(i)
		if r.IsPrimary() {
			primary = r
			break
		}
	}
	if primary == nil {
		t.Fatal("no primary replica")
	}
	half := primary.cfg.Wtimeout / 2
	for time.Now().Before(deadline) {
		if primary.sqs[0].Empty() && !primary.bubblePending.Load() &&
			primary.sqs[0].StarvesIn(half) > 0 {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatal("no bubble-free submission window observed")
}

// holdBubbleRound closes the window waitBubbleFreeWindow only narrows. Once
// the primary's sequence is empty and no bubble round is outstanding, it
// claims the primary's round itself, with a grace that cannot run out, so no
// starvation bubble can commit between the next request's CONNECT and its
// SEND; it gives the round back as soon as the primary has committed both.
// (A SEND that finds the pipeline idle still carries its own tail bubble,
// which commits behind it.) The returned func waits for the release.
func holdBubbleRound(t *testing.T, cluster *Cluster) (released func()) {
	t.Helper()
	p := currentPrimary(t, cluster)
	var calls uint64
	waitFor(t, 5*time.Second, "an idle primary whose bubble round the test can hold", func() bool {
		calls = p.sqs[0].Stats().ClientCalls
		return p.sqs[0].Empty() && p.bubblePending.CompareAndSwap(false, true)
	})
	p.bubbleSince.Store(time.Now().Add(time.Hour).UnixNano())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline) &&
			p.sqs[0].Stats().ClientCalls < calls+2; {
			time.Sleep(50 * time.Microsecond)
		}
		p.bubblePending.Store(false)
	}()
	return func() { <-done }
}

// TestHTTPDScheduleGolden locks the scheduler hot path to the rotation
// order of the pre-fast-path implementation: the same serial httpd
// workload must produce (a) the identical ScheduleSum on every replica,
// (b) identical cross-replica output fingerprints, and (c) exactly the
// golden values recorded in testdata/httpd_schedule.golden, which were
// captured on the original unlock→poke→wake→re-check scheduler. Any
// change to rotation order, clock semantics, or wake-up insertion points
// shows up here as a hash mismatch.
//
// Regenerate (only when the workload itself is intentionally changed) with:
//
//	CRANE_REGOLDEN=1 go test ./internal/crane -run TestHTTPDScheduleGolden
func TestHTTPDScheduleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster workload in -short mode")
	}
	sums, fps := runDetHTTPDWorkload(t)
	for i := 1; i < len(sums); i++ {
		if sums[i] != sums[0] {
			t.Fatalf("replica %d ScheduleSum %#x != replica 0 %#x", i, sums[i], sums[0])
		}
		if fps[i] != fps[0] {
			t.Fatalf("replica %d output fingerprint %#x != replica 0 %#x", i, fps[i], fps[0])
		}
	}
	got := fmt.Sprintf("schedulesum %#x\noutputs %#x\n", sums[0], fps[0])
	goldenPath := filepath.Join("testdata", "httpd_schedule.golden")
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
	if !bytes.Equal(want, []byte(got)) {
		t.Fatalf("schedule diverged from golden recording\n got: %s\nwant: %s", got, want)
	}
}
