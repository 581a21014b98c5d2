package crane

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"crane/internal/apps/httpd"
	"crane/internal/simnet"
	"crane/internal/trace"
)

// specClusterConfig is detClusterConfig plus speculation; the election
// timeout is pinned low so the partition tests fail over quickly.
func specClusterConfig() Config {
	cfg := detClusterConfig()
	cfg.Speculation = true
	cfg.ElectionTimeout = 150 * time.Millisecond
	return cfg
}

// TestSpeculationHTTPDHitPath runs the pinned serial workload with
// speculation on: every burst should execute ahead of its commit and be
// confirmed (no aborts), replicas must stay bit-identical, and with
// Config.Speculation default-off the golden-schedule test elsewhere in
// this package proves the pre-speculation pipeline is untouched.
func TestSpeculationHTTPDHitPath(t *testing.T) {
	c, err := StartCluster(specClusterConfig(), httpd.Program(detHTTPDConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	waitScheduleStable(t, c)
	for i := 0; i < 6; i++ {
		req := []byte(fmt.Sprintf("GET /page%d.php HTTP/1.0\r\n\r\n", i%2))
		resp, err := c.DialAndRequest(fmt.Sprintf("spec:%d", i), 8080, req, 1)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !bytes.Contains(resp, []byte("200 OK")) {
			t.Fatalf("request %d: unexpected response %q", i, resp)
		}
		waitScheduleStable(t, c)
	}
	p, err := c.Primary()
	if err != nil {
		t.Fatal(err)
	}
	st := p.SpecStats()
	if st.Windows == 0 || st.Hits == 0 {
		t.Fatalf("speculation never engaged: %+v", st)
	}
	if st.Rollbacks != 0 {
		t.Fatalf("unexpected rollback on the hit path: %+v", st)
	}
	if st.Pending != 0 || st.Buffered != 0 {
		t.Fatalf("window left open after quiescence: %+v", st)
	}
	assertReplicasConverged(t, c, allReplicaIDs(c))
}

// forceSpecAbort partitions the primary off the consensus fabric and
// drives a canary PUT into it: the stranded primary speculates the burst
// (its local ProposeBatch still succeeds), executes it, and buffers the
// response — which can never commit. Returns the stranded primary's id.
// The caller owns the follow-up (heal for a rollback, or kill).
func forceSpecAbort(t *testing.T, c *Cluster, canary string) int {
	t.Helper()
	return forceSpecAbortAfter(t, c, canary, func(*Replica) {})
}

// forceSpecAbortAfter is forceSpecAbort with a pause between the canary's
// connect and its PUT: connected runs on the stranded primary in between.
func forceSpecAbortAfter(t *testing.T, c *Cluster, canary string, connected func(p *Replica)) int {
	t.Helper()
	// Committed warm-up traffic, so the eventual replay is non-trivial.
	if _, err := c.DialAndRequest("warm:1", 8080, []byte("GET /index.html HTTP/1.0\r\n\r\n"), 1); err != nil {
		t.Fatal(err)
	}
	waitScheduleStable(t, c)
	p, err := c.Primary()
	if err != nil {
		t.Fatal(err)
	}
	c.PartitionReplica(p.ID())

	base := p.sqs[0].SpecConsumed()
	conn, err := c.Net().Dial(simnet.Addr("canary:1"), c.Addr(p.ID(), 8080))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for {
			n, rerr := conn.Read(buf)
			mu.Lock()
			got = append(got, buf[:n]...)
			mu.Unlock()
			if rerr != nil {
				return
			}
		}
	}()
	connected(p)
	req := fmt.Sprintf("PUT /canary.html HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s", len(canary), canary)
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	// Wait until the stranded primary consumes the burst speculatively.
	waitFor(t, 5*time.Second, "speculative consumption", func() bool {
		return p.sqs[0].SpecConsumed() > base
	})
	// Close the client side: its EOF rides in as a speculated CLOSE, which
	// unblocks the worker's gate (the sequence stays non-empty) so the
	// handler runs to completion and its response lands in the buffer.
	conn.Close()
	waitFor(t, 5*time.Second, "buffered speculative output", func() bool {
		return p.SpecStats().Buffered > 0
	})
	<-done
	mu.Lock()
	defer mu.Unlock()
	if len(got) > 0 {
		t.Fatalf("aborted speculation leaked %d bytes to the client: %q", len(got), got)
	}
	return p.ID()
}

// TestSpeculationForcedMismatchRollback partitions a speculating primary
// mid-burst, lets the survivors elect a new primary and commit entries the
// stranded replica never speculated, then heals it: the commit-order
// mismatch must trigger a full checkpoint rollback, after which all three
// replicas converge to bit-identical schedules and output streams.
func TestSpeculationForcedMismatchRollback(t *testing.T) {
	c, err := StartCluster(specClusterConfig(), httpd.Program(detHTTPDConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	waitScheduleStable(t, c)
	old := forceSpecAbort(t, c, "MISMATCH-CANARY")

	np := waitNewPrimary(t, c, old)
	resp := rawRequest(t, c, "nb:1", np.ID(), "GET /index.html HTTP/1.0\r\n\r\n")
	if !bytes.Contains(resp, []byte("It works!")) {
		t.Fatalf("new primary response: %q", resp)
	}

	c.HealReplica(old)
	waitFor(t, 10*time.Second, "rollback on the healed replica", func() bool {
		st := c.Replica(old).SpecStats()
		return st.Aborts >= 1 && st.Rollbacks >= 1 && st.Pending == 0
	})
	// One more committed request after repair, then all three must agree.
	if _, err := c.DialAndRequest("post:1", 8080, []byte("GET /page0.php HTTP/1.0\r\n\r\n"), 1); err != nil {
		t.Fatal(err)
	}
	assertReplicasConverged(t, c, allReplicaIDs(c))
	st := c.Replica(old).SpecStats()
	if st.LightAborts == st.Aborts {
		t.Fatalf("expected a full (not light) abort: %+v", st)
	}
}

// TestSpeculationLeaderKillDuringWindow kills the stranded primary while
// its speculation window is still open (buffered output and all): the
// survivors must fail over and stay bit-identical, and the aborted
// speculation must never have reached the client.
func TestSpeculationLeaderKillDuringWindow(t *testing.T) {
	c, err := StartCluster(specClusterConfig(), httpd.Program(detHTTPDConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	waitScheduleStable(t, c)
	old := forceSpecAbort(t, c, "LEADERKILL-CANARY")
	c.FailReplica(old)

	np := waitNewPrimary(t, c, old)
	resp := rawRequest(t, c, "nb:1", np.ID(), "GET /index.html HTTP/1.0\r\n\r\n")
	if !bytes.Contains(resp, []byte("It works!")) {
		t.Fatalf("new primary response: %q", resp)
	}
	var survivors []int
	for i := 0; i < c.Replicas(); i++ {
		if i != old {
			survivors = append(survivors, i)
		}
	}
	assertReplicasConverged(t, c, survivors)
	assertNoCanary(t, c, survivors, "LEADERKILL-CANARY")
}

// TestSpeculationAbortDiscardsBufferedEffects is the deep no-leak check
// for the abort path: after the forced mismatch and rollback, the canary
// PUT's effects must be gone everywhere — no replica's output log, no
// replica's filesystem, and (asserted inside forceSpecAbort) no client
// socket ever carried a byte of it.
func TestSpeculationAbortDiscardsBufferedEffects(t *testing.T) {
	c, err := StartCluster(specClusterConfig(), httpd.Program(detHTTPDConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	waitScheduleStable(t, c)
	const canary = "SPECLEAK-CANARY"
	old := forceSpecAbort(t, c, canary)

	np := waitNewPrimary(t, c, old)
	rawRequest(t, c, "nb:1", np.ID(), "GET /index.html HTTP/1.0\r\n\r\n")
	c.HealReplica(old)
	waitFor(t, 10*time.Second, "rollback on the healed replica", func() bool {
		st := c.Replica(old).SpecStats()
		return st.Rollbacks >= 1 && st.Pending == 0
	})
	assertReplicasConverged(t, c, allReplicaIDs(c))
	assertNoCanary(t, c, allReplicaIDs(c), canary)
	// The speculative fs.Write must have been rolled back with the rest of
	// the execution state.
	for _, path := range []string{"www/canary.html", "www//canary.html"} {
		if c.Replica(old).FS().Exists(path) {
			t.Fatalf("canary file %q survived the rollback", path)
		}
	}
}

// TestSpeculationRollbackFromBoundary forces the rollback to restore from
// an installed checkpoint boundary instead of genesis (boundaryEvery=1
// makes every quiet moment a capture opportunity) and then asserts that
// outputs committed AFTER the repair still reach the output log and the
// clients. This is the regression test for boundary-relative replay
// suppression: suppression must count only the outputs recorded since the
// boundary, not every output ever recorded — otherwise the replica
// silently swallows that many fresh committed responses after the replay.
func TestSpeculationRollbackFromBoundary(t *testing.T) {
	c, err := StartCluster(specClusterConfig(), httpd.Program(detHTTPDConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	setSpecTuning(c, 1, 0)
	waitScheduleStable(t, c)
	// Committed traffic first, so the boundary state embodies recorded
	// outputs (the counts stale suppression would swallow).
	for i := 0; i < 2; i++ {
		if _, err := c.DialAndRequest(fmt.Sprintf("bwarm:%d", i), 8080,
			[]byte("GET /index.html HTTP/1.0\r\n\r\n"), 1); err != nil {
			t.Fatal(err)
		}
		waitScheduleStable(t, c)
	}
	p, err := c.Primary()
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "boundary capture on the primary", func() bool {
		return specBoundaryIndex(p) > 0
	})

	old := forceSpecAbort(t, c, "BOUNDARY-CANARY")
	np := waitNewPrimary(t, c, old)
	resp := rawRequest(t, c, "nb:1", np.ID(), "GET /index.html HTTP/1.0\r\n\r\n")
	if !bytes.Contains(resp, []byte("It works!")) {
		t.Fatalf("new primary response: %q", resp)
	}
	c.HealReplica(old)
	waitFor(t, 10*time.Second, "rollback on the healed replica", func() bool {
		st := c.Replica(old).SpecStats()
		return st.Rollbacks >= 1 && st.Pending == 0
	})
	// The repair must have restored from the boundary, not genesis — that
	// is the path under test, and the epoch fold marks it.
	waitFor(t, 10*time.Second, "boundary-restore epoch", func() bool {
		return c.Replica(old).proc().Sched.Stats().Epoch >= 1
	})
	// A fresh committed request after the repair: its output must land in
	// every replica's output log, including the rolled-back one.
	if _, err := c.DialAndRequest("post:1", 8080,
		[]byte("GET /page0.php HTTP/1.0\r\n\r\n"), 1); err != nil {
		t.Fatal(err)
	}
	assertOutputsConverged(t, c, allReplicaIDs(c))
	assertNoCanary(t, c, allReplicaIDs(c), "BOUNDARY-CANARY")
}

// TestSpeculationLogCapTripAndRearm pins the replay log's hard bound: a
// connection held open blocks every quiescent capture, so the log must
// hit the cap, trip (drop the log, disable feeding — the pipeline keeps
// serving, just without speculation), and then re-arm through a fresh
// boundary capture once the connection closes.
func TestSpeculationLogCapTripAndRearm(t *testing.T) {
	c, err := StartCluster(specClusterConfig(), httpd.Program(detHTTPDConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	setSpecTuning(c, 4, 8)
	waitScheduleStable(t, c)
	p, err := c.Primary()
	if err != nil {
		t.Fatal(err)
	}
	// Hold a connection open: the cluster is never quiescent, no boundary
	// capture can trim the log, and the idle bubble stream grows it past
	// the cap.
	holder, err := c.Net().Dial(simnet.Addr("holder:1"), c.Addr(p.ID(), 8080))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "log cap trip on the primary", func() bool {
		return p.SpecStats().LogTrips >= 1
	})
	st := p.SpecStats()
	if !st.Disabled {
		t.Fatalf("feeding not disabled after a cap trip: %+v", st)
	}
	// The pipeline must keep serving while speculation is off.
	resp, err := c.DialAndRequest("capreq:1", 8080,
		[]byte("GET /index.html HTTP/1.0\r\n\r\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(resp, []byte("It works!")) {
		t.Fatalf("disabled-phase response: %q", resp)
	}
	holder.Close()
	// Quiescent moments now let the disabled-state capture re-arm feeding
	// with a fresh boundary.
	waitFor(t, 15*time.Second, "re-arm after a boundary capture", func() bool {
		return !p.SpecStats().Disabled
	})
	winBefore := p.SpecStats().Windows
	reqN := 0
	waitFor(t, 15*time.Second, "speculation re-engaged", func() bool {
		if p.SpecStats().Windows > winBefore {
			return true
		}
		reqN++
		c.DialAndRequest(fmt.Sprintf("rearm:%d", reqN), 8080,
			[]byte("GET /index.html HTTP/1.0\r\n\r\n"), 1)
		return p.SpecStats().Windows > winBefore
	})
	waitScheduleStable(t, c)
	assertReplicasConverged(t, c, allReplicaIDs(c))
}

// --- helpers ---

// setSpecTuning adjusts every replica's speculator knobs (zero keeps the
// default) — tests shrink boundaryEvery to force boundary captures and
// logCap to force replay-log cap trips.
func setSpecTuning(c *Cluster, boundaryEvery, logCap int) {
	for i := 0; i < c.Replicas(); i++ {
		sp := c.Replica(i).spec
		sp.mu.Lock()
		if boundaryEvery > 0 {
			sp.boundaryEvery = boundaryEvery
		}
		if logCap > 0 {
			sp.logCap = logCap
		}
		sp.mu.Unlock()
	}
}

// specBoundaryIndex reads the replica's installed rollback boundary index
// (0 when none).
func specBoundaryIndex(r *Replica) uint64 {
	r.spec.mu.Lock()
	defer r.spec.mu.Unlock()
	if r.spec.boundary == nil {
		return 0
	}
	return r.spec.boundary.Index
}

// assertOutputsConverged waits for the listed replicas to go quiescent
// with stable per-replica ScheduleSums and EQUAL output fingerprints. It
// is the convergence check for boundary-restore repairs: a replica
// rebuilt from a checkpoint boundary replays only the post-boundary
// schedule, so its ScheduleSum intentionally differs (epoch fold) while
// its externally visible outputs must still match bit for bit.
func assertOutputsConverged(t *testing.T, c *Cluster, ids []int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	last := make(map[int]uint64)
	stable := 0
	for time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		ok := true
		var refFP uint64
		for k, i := range ids {
			r := c.Replica(i)
			sum := r.proc().Sched.Stats().ScheduleSum
			fp := r.Outputs().Fingerprint()
			if r.openConns.Load() != 0 || sum != last[i] {
				ok = false
			}
			last[i] = sum
			if k == 0 {
				refFP = fp
			} else if fp != refFP {
				ok = false
			}
		}
		if !ok {
			stable = 0
			continue
		}
		if stable++; stable >= 25 {
			return
		}
	}
	ref := c.Replica(ids[0])
	for _, i := range ids[1:] {
		r := c.Replica(i)
		if d := trace.Diff(ref.Outputs(), r.Outputs()); d != nil {
			t.Fatalf("output divergence replica%d vs replica%d: %+v", ids[0], i, d)
		}
	}
	t.Fatalf("outputs never converged (fingerprints unstable or unequal)")
}

func allReplicaIDs(c *Cluster) []int {
	ids := make([]int, c.Replicas())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// waitNewPrimary waits for a primary other than exclude (which may still
// believe it is primary — a partitioned stale leader — so Cluster.Primary
// cannot be used here).
func waitNewPrimary(t *testing.T, c *Cluster, exclude int) *Replica {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for i := 0; i < c.Replicas(); i++ {
			r := c.Replica(i)
			if i != exclude && !r.killed() && r.IsPrimary() {
				return r
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no new primary emerged")
	return nil
}

// rawRequest sends one request to a specific replica's proxy (bypassing
// Cluster.Dial's primary discovery) and reads until close.
func rawRequest(t *testing.T, c *Cluster, client string, replica int, req string) []byte {
	t.Helper()
	conn, err := c.Net().Dial(simnet.Addr(client), c.Addr(replica, 8080))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var out []byte
	buf := make([]byte, 4096)
	for {
		n, rerr := conn.Read(buf)
		out = append(out, buf[:n]...)
		if rerr != nil {
			return out
		}
	}
}

// assertReplicasConverged waits for the listed replicas to go quiescent
// with stable, equal ScheduleSums and equal output fingerprints — the
// bit-identical repair criterion.
func assertReplicasConverged(t *testing.T, c *Cluster, ids []int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	last := make(map[int]uint64)
	stable := 0
	for time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		// Converged means: every listed replica has closed its connections,
		// the ScheduleSums are stable AND all equal, and the output
		// fingerprints all equal. A replica can plateau briefly while it
		// waits out bubble pacing, so equality is part of the stability
		// condition rather than checked once afterwards.
		ok := true
		var refSum, refFP uint64
		for k, i := range ids {
			r := c.Replica(i)
			sum := r.proc().Sched.Stats().ScheduleSum
			fp := r.Outputs().Fingerprint()
			if r.openConns.Load() != 0 || sum != last[i] {
				ok = false
			}
			last[i] = sum
			if k == 0 {
				refSum, refFP = sum, fp
			} else if sum != refSum || fp != refFP {
				ok = false
			}
		}
		if !ok {
			stable = 0
			continue
		}
		if stable++; stable >= 25 {
			return
		}
	}
	ref := c.Replica(ids[0])
	for _, i := range ids[1:] {
		r := c.Replica(i)
		if d := trace.Diff(ref.Outputs(), r.Outputs()); d != nil {
			t.Fatalf("output divergence replica%d vs replica%d: %+v", ids[0], i, d)
		}
	}
	var sums []string
	for _, i := range ids {
		sums = append(sums, fmt.Sprintf("replica%d=%#x", i,
			c.Replica(i).proc().Sched.Stats().ScheduleSum))
	}
	t.Fatalf("replicas never converged: %v", sums)
}

// assertNoCanary asserts no replica's output log carries the canary bytes.
func assertNoCanary(t *testing.T, c *Cluster, ids []int, canary string) {
	t.Helper()
	for _, i := range ids {
		for _, ev := range c.Replica(i).Outputs().Events() {
			if bytes.Contains(ev.Data, []byte(canary)) {
				t.Fatalf("replica%d logged aborted speculative output: %q", i, ev.Data)
			}
		}
	}
}
