package crane

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"crane/internal/apps/clients"
	"crane/internal/apps/httpd"
	"crane/internal/simnet"
	"crane/internal/trace"
)

// specClusterConfig is detClusterConfig plus speculation and a WAL, so a
// fail-stopped replica can be restarted; the election timeout is pinned low
// so the partition tests fail over quickly.
func specClusterConfig(t *testing.T) Config {
	cfg := detClusterConfig()
	cfg.Speculation = true
	cfg.WALDir = t.TempDir()
	cfg.ElectionTimeout = 150 * time.Millisecond
	return cfg
}

// TestSpeculationHTTPDHitPath runs the pinned serial workload with
// speculation on: every burst should execute ahead of its commit and be
// confirmed (no aborts), replicas must stay bit-identical, and with
// Config.Speculation default-off the golden-schedule test elsewhere in
// this package proves the pre-speculation pipeline is untouched.
func TestSpeculationHTTPDHitPath(t *testing.T) {
	c, err := StartCluster(specClusterConfig(t), httpd.Program(detHTTPDConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	waitScheduleStable(t, c)
	for i := 0; i < 6; i++ {
		req := []byte(fmt.Sprintf("GET /page%d.php HTTP/1.0\r\n\r\n", i%2))
		resp, err := clients.Request(c.Dial, fmt.Sprintf("spec:%d", i), 8080, req, firstByte)
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
// The caller owns the follow-up (healAndRestart, or kill).
func forceSpecAbort(t *testing.T, c *Cluster, canary string) int {
	t.Helper()
	return forceSpecAbortAfter(t, c, canary, func(*Replica) {})
}

// forceSpecAbortAfter is forceSpecAbort with a pause between the canary's
// connect and its PUT: connected runs on the stranded primary in between.
func forceSpecAbortAfter(t *testing.T, c *Cluster, canary string, connected func(p *Replica)) int {
	t.Helper()
	// Committed warm-up traffic, so the restart's replay is non-trivial.
	if _, err := clients.Request(c.Dial, "warm:1", 8080, []byte(indexGET), firstByte); err != nil {
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

// healAndRestart heals the stranded primary forceSpecAbort left behind and
// brings it back. The new primary's commits mismatch its open window, and
// because the server already consumed the canary the abort is contaminated:
// the replica must fail-stop with its buffer discarded. RestartReplica then
// replays its WAL, and all three replicas must converge to bit-identical
// schedules and outputs with the canary in no output log and no filesystem.
func healAndRestart(t *testing.T, c *Cluster, old int, canary string) {
	t.Helper()
	stranded := c.Replica(old)
	c.HealReplica(old)
	waitFor(t, 10*time.Second, "fail-stop of the healed replica", stranded.killed)
	st := stranded.SpecStats()
	if st.Rollbacks < 1 || st.LightAborts >= st.Aborts || st.Buffered != 0 {
		t.Fatalf("expected a contaminated abort with its buffer discarded: %+v", st)
	}
	// Every byte forwarded to a client is recorded in the output log first
	// (emitOutput, flushLocked), so a clean log means no canary byte left
	// the stranded replica, before the heal or after it.
	assertNoCanaryIn(t, stranded, canary)
	if err := c.RestartReplica(old); err != nil {
		t.Fatal(err)
	}
	// One more committed request after the restart, then all three must
	// agree.
	if _, err := clients.Request(c.Dial, "post:1", 8080, []byte("GET /page0.php HTTP/1.0\r\n\r\n"), firstByte); err != nil {
		t.Fatal(err)
	}
	ids := allReplicaIDs(c)
	assertReplicasConverged(t, c, ids)
	assertNoCanary(t, c, ids, canary)
	for _, i := range ids {
		for _, path := range []string{"www/canary.html", "www//canary.html"} {
			if c.Replica(i).FS().Exists(path) {
				t.Fatalf("canary file %q on replica%d", path, i)
			}
		}
	}
}

// TestSpeculationForcedMismatchRollback partitions a speculating primary
// mid-burst, lets the survivors elect a new primary and commit entries the
// stranded replica never speculated, then heals it: the commit-order
// mismatch must fail-stop the contaminated replica, and after
// RestartReplica all three replicas converge to bit-identical schedules
// and output streams.
func TestSpeculationForcedMismatchRollback(t *testing.T) {
	c, err := StartCluster(specClusterConfig(t), httpd.Program(detHTTPDConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	waitScheduleStable(t, c)
	old := forceSpecAbort(t, c, "MISMATCH-CANARY")

	resp, err := clients.Request(newPrimary(t, c, old), "nb:1", 8080, []byte(indexGET), untilClose)
	if !bytes.Contains(resp, []byte("It works!")) {
		t.Fatalf("new primary response: %q, %v", resp, err)
	}
	healAndRestart(t, c, old, "MISMATCH-CANARY")
}

// TestSpeculationLeaderKillDuringWindow kills the stranded primary while
// its speculation window is still open (buffered output and all): the
// survivors must fail over and stay bit-identical, and the aborted
// speculation must never have reached the client.
func TestSpeculationLeaderKillDuringWindow(t *testing.T) {
	c, err := StartCluster(specClusterConfig(t), httpd.Program(detHTTPDConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	waitScheduleStable(t, c)
	old := forceSpecAbort(t, c, "LEADERKILL-CANARY")
	c.FailReplica(old)

	resp, err := clients.Request(newPrimary(t, c, old), "nb:1", 8080, []byte(indexGET), untilClose)
	if !bytes.Contains(resp, []byte("It works!")) {
		t.Fatalf("new primary response: %q, %v", resp, err)
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
// for the abort path: the canary PUT's response sits in the stranded
// primary's buffer when the window aborts, and its effects must be gone
// everywhere — no client socket ever carried a byte of it (asserted inside
// forceSpecAbort and healAndRestart), and no replica's output log or
// filesystem holds it once the fail-stopped replica is back.
func TestSpeculationAbortDiscardsBufferedEffects(t *testing.T) {
	c, err := StartCluster(specClusterConfig(t), httpd.Program(detHTTPDConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	waitScheduleStable(t, c)
	const canary = "SPECLEAK-CANARY"
	old := forceSpecAbort(t, c, canary)

	if _, err := clients.Request(newPrimary(t, c, old), "nb:1", 8080, []byte(indexGET), untilClose); err != nil {
		t.Fatal(err)
	}
	healAndRestart(t, c, old, canary)
}

// --- helpers ---

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

// newPrimary dials the primary elected in place of old. A partitioned
// stale leader may still answer Cluster.Primary, so each dial looks for a
// leader other than old; clients.Request retries when the one it finds
// loses its view before it answers (proxy.propose).
func newPrimary(t *testing.T, c *Cluster, old int) clients.Dialer {
	return func(client string, port int) (*simnet.Conn, error) {
		return c.Net().Dial(simnet.Addr(client), c.Addr(waitNewPrimary(t, c, old).ID(), port))
	}
}

// indexGET asks httpd for its static page; the server closes after it.
const indexGET = "GET /index.html HTTP/1.0\r\n\r\n"

// untilClose completes a request only when the server closes.
func untilClose([]byte) bool { return false }

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
			sum := r.pproc.Sched.Stats().ScheduleSum
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
			c.Replica(i).pproc.Sched.Stats().ScheduleSum))
	}
	t.Fatalf("replicas never converged: %v", sums)
}

// assertNoCanary asserts no listed replica's output log carries the canary
// bytes.
func assertNoCanary(t *testing.T, c *Cluster, ids []int, canary string) {
	t.Helper()
	for _, i := range ids {
		assertNoCanaryIn(t, c.Replica(i), canary)
	}
}

func assertNoCanaryIn(t *testing.T, r *Replica, canary string) {
	t.Helper()
	for _, ev := range r.Outputs().Events() {
		if bytes.Contains(ev.Data, []byte(canary)) {
			t.Fatalf("replica%d logged aborted speculative output: %q", r.ID(), ev.Data)
		}
	}
}
