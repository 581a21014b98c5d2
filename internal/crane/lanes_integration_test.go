package crane

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"crane/internal/apps/clamav"
	"crane/internal/apps/clients"
	"crane/internal/apps/httpd"
	"crane/internal/apps/mongoose"
	"crane/internal/apps/mysqld"
	"crane/internal/trace"
)

// perConnOutputs rebuilds each connection's output stream from a replica's
// output log. With multiple lanes the *interleaving* of outputs across
// connections on different lanes is physically timed (each lane emits at
// its own pace), but the stream on any one connection is produced by one
// lane's deterministic schedule — so per-connection streams, not the whole
// log order, are the cross-replica invariant.
func perConnOutputs(l *trace.OutputLog) map[uint64]string {
	m := make(map[uint64]string)
	for _, e := range l.Events() {
		m[e.Conn] += string(e.Data)
	}
	return m
}

// waitLanesSettled blocks until every replica has recorded k outputs,
// closed all client connections, and kept a stable merged ScheduleSum for
// a sustained window — i.e. the backups have finished *executing* the
// committed inputs, not merely dequeued them (quiescence alone returns
// while trailing worker operations are still folding into the hash).
func waitLanesSettled(t *testing.T, c *Cluster, k int) {
	t.Helper()
	if err := c.WaitOutputs(k, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	last := make([]uint64, c.Replicas())
	stable := 0
	for time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		ok := true
		for i := 0; i < c.Replicas(); i++ {
			r := c.Replica(i)
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
		if stable++; stable >= 15 {
			return
		}
	}
	t.Fatal("lane schedules never settled")
}

// checkLaneContract waits until every replica has settled after k outputs
// (waitLanesSettled) and asserts the lane-level determinism contract across
// replicas: the deployment runs the given number of lanes, every lane
// spawned threads and served at least one connection, every lane's
// ScheduleSum and the merged ScheduleSum agree, and so does every
// connection's output stream.
func checkLaneContract(t *testing.T, c *Cluster, lanes, k int) {
	t.Helper()
	for i := 0; i < c.Replicas(); i++ {
		if got := c.Replica(i).lanes; got != lanes {
			t.Fatalf("replica %d running %d lanes, want %d", i, got, lanes)
		}
	}
	waitLanesSettled(t, c, k)
	ref := c.Replica(0)
	outs := perConnOutputs(ref.Outputs())
	served := make([]int, lanes)
	for conn := range outs {
		served[ref.laneForConn(conn)]++
	}
	for lane := 0; lane < lanes; lane++ {
		if ref.pproc.Sched.LaneStats(lane).Spawned == 0 {
			t.Fatalf("lane %d spawned no threads", lane)
		}
		if served[lane] == 0 {
			t.Fatalf("lane %d served no connection (per lane: %v)", lane, served)
		}
	}
	for i := 1; i < c.Replicas(); i++ {
		sched := c.Replica(i).pproc.Sched
		for lane := 0; lane < lanes; lane++ {
			got, want := sched.LaneStats(lane).ScheduleSum, ref.pproc.Sched.LaneStats(lane).ScheduleSum
			if got != want {
				t.Fatalf("replica %d lane %d ScheduleSum %#x != replica 0 %#x", i, lane, got, want)
			}
		}
		if got, want := sched.Stats().ScheduleSum, ref.pproc.Sched.Stats().ScheduleSum; got != want {
			t.Fatalf("replica %d merged ScheduleSum %#x != replica 0 %#x", i, got, want)
		}
		if got := perConnOutputs(c.Replica(i).Outputs()); !reflect.DeepEqual(got, outs) {
			t.Fatalf("replica %d per-connection outputs diverge from replica 0", i)
		}
	}
}

// TestCraneHTTPDLanes runs a 4-lane httpd deployment under full CRANE with
// concurrent clients and asserts the lane-level determinism contract
// across replicas: every lane's ScheduleSum, the merged ScheduleSum, and
// every connection's output stream must be identical on all three
// replicas. PUTs exercise the cross-lane page mutex under the admission
// gate (bubble-paced cross-lane stamps); GETs run lane-parallel.
func TestCraneHTTPDLanes(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster workload in -short mode")
	}
	cfg := httpd.DefaultConfig()
	cfg.Workers = 8
	cfg.PHPChunks = 3
	cfg.PHPChunkWork = 30
	cfg.CacheEnabled = false
	ccfg := integrationConfig(ModeCrane)
	ccfg.Lanes = 4
	c, err := StartCluster(ccfg, httpd.Program(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// 12 concurrent single-request connections: conn ids are consensus
	// state, so every replica routes the same connection to the same lane
	// (conn id mod 4), and all four lanes see traffic.
	var wg sync.WaitGroup
	errs := make([]error, 12)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, err := clients.Curl(c.Dial, fmt.Sprintf("lane%d:1", i), 8080,
				"GET", fmt.Sprintf("/page%d.php", i%8), nil)
			if err != nil {
				errs[i] = err
			} else if status != 200 {
				errs[i] = fmt.Errorf("GET status %d", status)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// Concurrent PUTs to distinct files: document-root writes take the
	// cross-lane pageMu, so lanes contend — and must still agree.
	var pw sync.WaitGroup
	perrs := make([]error, 4)
	for i := 0; i < 4; i++ {
		pw.Add(1)
		go func(i int) {
			defer pw.Done()
			status, _, err := clients.Curl(c.Dial, fmt.Sprintf("put%d:1", i), 8080,
				"PUT", fmt.Sprintf("/new%d.html", i), []byte("lane-parallel\n"))
			if err != nil {
				perrs[i] = err
			} else if status != 201 {
				perrs[i] = fmt.Errorf("PUT status %d", status)
			}
		}(i)
	}
	pw.Wait()
	for i, err := range perrs {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	checkLaneContract(t, c, 4, 16) // 12 GET + 4 PUT responses
}

// TestCraneMongooseLanes is the same contract on mongoose's per-worker
// mailbox structure, at 2 lanes (the minimum that exercises the cross-lane
// merge) with concurrent clients.
func TestCraneMongooseLanes(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster workload in -short mode")
	}
	mcfg := mongoose.DefaultConfig()
	mcfg.ScriptChunks = 3
	mcfg.ScriptChunkWork = 30
	ccfg := integrationConfig(ModeCrane)
	ccfg.Lanes = 2
	c, err := StartCluster(ccfg, mongoose.Program(mcfg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, err := clients.Curl(c.Dial, fmt.Sprintf("mg%d:1", i), 8081,
				"GET", fmt.Sprintf("/app%d.php", i%6), nil)
			if err != nil {
				errs[i] = err
			} else if status != 200 {
				errs[i] = fmt.Errorf("GET status %d", status)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	checkLaneContract(t, c, 2, 8)
}

// TestCraneMySQLLanes is the contract on mysqld at its 2-lane cap
// (ConflictMap.MaxUseful): sessions on both lanes update and read the same
// rows, so every statement takes the cross-lane catalog and table locks,
// whose merge order decides what each SELECT returns.
func TestCraneMySQLLanes(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster workload in -short mode")
	}
	mcfg := mysqld.DefaultConfig()
	mcfg.Workers = 4
	ccfg := integrationConfig(ModeCrane)
	ccfg.Lanes = 2
	c, err := StartCluster(ccfg, mysqld.Program(mcfg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	const rows = 10
	if err := clients.SysBenchPrepare(c.Dial, "prep:1", 3306, rows); err != nil {
		t.Fatal(err)
	}
	const sessions = 8
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := i%3 + 1
			req := fmt.Sprintf("UPDATE sbtest SET c = 'w%d' WHERE id = %d\nSELECT * FROM sbtest WHERE id = %d\nQUIT\n", i, id, id)
			reply, err := clients.Request(c.Dial, fmt.Sprintf("sql%d:1", i), 3306, []byte(req),
				func([]byte) bool { return false })
			if err != nil {
				errs[i] = err
			} else if !strings.HasPrefix(string(reply), "OK 1\nROWS 1\n") {
				errs[i] = fmt.Errorf("reply %q", reply)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	checkLaneContract(t, c, 2, 1+rows+2*sessions) // CREATE, INSERTs, then UPDATE + SELECT per session
}

// TestCraneClamAVLanes is the contract on clamd's fully partitioned
// structure: concurrent scans of disjoint trees, at least one on each lane,
// each fanning its files out to its own lane's scanner pool.
func TestCraneClamAVLanes(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster workload in -short mode")
	}
	ccfg := clamav.DefaultConfig()
	ccfg.Handlers = 4
	ccfg.Scanners = 4
	ccfg.WorkPerKB = 5
	cl := integrationConfig(ModeCrane)
	cl.Lanes = 2
	c, err := StartCluster(cl, clamav.Program(ccfg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	// Disjoint prefixes: a scan deletes what it finds infected, so two
	// scans of one tree on different lanes would race on the deletion.
	roots := []string{"src/clamav/file0", "src/clamav/file1", "src/clamav/malware", "src/clamav/deep"}
	var wg sync.WaitGroup
	errs := make([]error, len(roots))
	for i, root := range roots {
		wg.Add(1)
		go func(i int, root string) {
			defer wg.Done()
			report, err := clients.ClamdScan(c.Dial, fmt.Sprintf("cs%d:1", i), 3310, root)
			if err != nil {
				errs[i] = err
			} else if !strings.Contains(report, "SCAN SUMMARY: scanned ") {
				errs[i] = fmt.Errorf("report %q", report)
			}
		}(i, root)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("scan %s: %v", roots[i], err)
		}
	}
	checkLaneContract(t, c, 2, len(roots))
}

// TestOvercommitServesEveryConnection: more concurrent connections than the
// server has workers. The acceptor takes connections as their CONNECTs
// commit, and a connection waiting for a worker has its SEND committed ahead
// of the SENDs the busy workers wait for. The gate files each SEND into its
// connection's buffer on its turn, so that SEND cannot hold the others up:
// every request is answered, and every replica produces the same
// per-connection outputs.
func TestOvercommitServesEveryConnection(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster workload in -short mode")
	}
	hcfg := httpd.DefaultConfig()
	hcfg.Workers = 2
	hcfg.PHPChunks = 3
	hcfg.PHPChunkWork = 30
	hcfg.CacheEnabled = false
	ccfg := integrationConfig(ModeCrane)
	ccfg.Lanes = 1
	c, err := StartCluster(ccfg, httpd.Program(hcfg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	const conns = 8
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		go func(i int) {
			status, _, err := clients.Curl(c.Dial, fmt.Sprintf("over%d:1", i), 8080,
				"GET", fmt.Sprintf("/page%d.php", i), nil)
			if err == nil && status != 200 {
				err = fmt.Errorf("GET status %d", status)
			}
			errs <- err
		}(i)
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < conns; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("request: %v", err)
			}
		case <-deadline:
			t.Fatalf("%d of %d connections unanswered after 5s with %d workers", conns-i, conns, hcfg.Workers)
		}
	}
	waitLanesSettled(t, c, conns)
	want := perConnOutputs(c.Replica(0).Outputs())
	if len(want) != conns {
		t.Fatalf("replica 0 answered %d connections, want %d", len(want), conns)
	}
	for i := 1; i < c.Replicas(); i++ {
		if got := perConnOutputs(c.Replica(i).Outputs()); !reflect.DeepEqual(got, want) {
			t.Fatalf("replica %d per-connection outputs diverge from replica 0", i)
		}
	}
}
