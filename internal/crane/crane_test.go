package crane

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"crane/internal/apps/clients"
	"crane/internal/cfs"
	"crane/internal/checkpoint"
	"crane/internal/papi"
	"crane/internal/simnet"
	"crane/internal/trace"
)

// testKV is a small multithreaded key-value server: listener + worker pool
// over a mutex/cond worklist, line protocol ("SET k v", "GET k", "DEL k"),
// state snapshot via gob. It exercises every piece of the replica plumbing.
type testKV struct {
	workers int

	mu   sync.Mutex // guards data for Snapshot vs worker access
	data map[string]string
}

func newTestKV(workers int) papi.Program {
	return papi.Program{
		Name:  "testkv",
		Ports: []int{7000},
		New: func(fs *cfs.FS) papi.Instance {
			return &testKV{workers: workers, data: make(map[string]string)}
		},
	}
}

func (k *testKV) Snapshot() ([]byte, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(k.data)
	return buf.Bytes(), err
}

func (k *testKV) Restore(b []byte) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	return gob.NewDecoder(bytes.NewReader(b)).Decode(&k.data)
}

func (k *testKV) Run(t papi.T) {
	l, err := t.Listen(7000)
	if err != nil {
		return
	}
	var (
		wl []papi.Conn
		m  = t.NewMutex()
		cv = t.NewCond()
		sm = t.NewMutex() // app-state lock (the schedule-visible one)
	)
	for i := 0; i < k.workers; i++ {
		t.Spawn(fmt.Sprintf("kvworker%d", i), func(wt papi.T) {
			for !wt.Killed() {
				m.Lock(wt)
				for len(wl) == 0 {
					cv.Wait(wt, m)
				}
				c := wl[0]
				wl = wl[1:]
				m.Unlock(wt)
				k.serve(wt, c, sm)
			}
		})
	}
	for !t.Killed() {
		c, err := l.Accept(t)
		if err != nil {
			return
		}
		m.Lock(t)
		wl = append(wl, c)
		m.Unlock(t)
		cv.Signal(t)
	}
}

func (k *testKV) serve(t papi.T, c papi.Conn, sm papi.Mutex) {
	defer c.Close(t)
	var acc []byte
	buf := make([]byte, 512)
	for {
		i := bytes.IndexByte(acc, '\n')
		for i < 0 {
			n, err := c.Recv(t, buf)
			if err != nil {
				return
			}
			acc = append(acc, buf[:n]...)
			i = bytes.IndexByte(acc, '\n')
		}
		line := strings.TrimSpace(string(acc[:i]))
		acc = acc[i+1:]
		t.Work(20) // request processing compute
		parts := strings.SplitN(line, " ", 3)
		var resp string
		sm.Lock(t)
		k.mu.Lock()
		switch parts[0] {
		case "SET":
			if len(parts) == 3 {
				k.data[parts[1]] = parts[2]
				resp = "OK\n"
			} else {
				resp = "ERR\n"
			}
		case "GET":
			if v, ok := k.data[parts[1]]; ok {
				resp = "VALUE " + v + "\n"
			} else {
				resp = "NONE\n"
			}
		case "DEL":
			delete(k.data, parts[1])
			resp = "OK\n"
		case "QUIT":
			k.mu.Unlock()
			sm.Unlock(t)
			return
		default:
			resp = "ERR\n"
		}
		k.mu.Unlock()
		sm.Unlock(t)
		if _, err := c.Send(t, []byte(resp)); err != nil {
			return
		}
	}
}

// kvRequest runs one request/response line through clients.Request.
func kvRequest(t *testing.T, c *Cluster, client, line string) string {
	t.Helper()
	resp, err := clients.Request(c.Dial, client, 7000, []byte(line+"\n"), clients.UntilLine)
	if err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	return strings.TrimSpace(string(resp))
}

// firstByte completes a request at its first reply byte.
func firstByte(reply []byte) bool { return len(reply) > 0 }

func testConfig(mode Mode) Config {
	return Config{
		Mode:     mode,
		Replicas: 3,
		Wtimeout: 200 * time.Microsecond,
		Nclock:   200,
		NetOptions: simnet.Options{
			Latency: 50 * time.Microsecond,
			Jitter:  100 * time.Microsecond,
		},
		HubLatency:        30 * time.Microsecond,
		HubJitter:         80 * time.Microsecond,
		HeartbeatInterval: 30 * time.Millisecond,
		ElectionTimeout:   150 * time.Millisecond,
	}
}

func TestKVAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeNondet, ModeParrotOnly, ModePaxosOnly, ModeCrane} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			c, err := StartCluster(testConfig(mode), newTestKV(8))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			if got := kvRequest(t, c, "cli0:1", "SET a 1"); got != "OK" {
				t.Fatalf("SET = %q", got)
			}
			if got := kvRequest(t, c, "cli0:2", "GET a"); got != "VALUE 1" {
				t.Fatalf("GET = %q", got)
			}
			if got := kvRequest(t, c, "cli0:3", "GET zzz"); got != "NONE" {
				t.Fatalf("GET missing = %q", got)
			}
			if got := kvRequest(t, c, "cli0:4", "DEL a"); got != "OK" {
				t.Fatalf("DEL = %q", got)
			}
			if got := kvRequest(t, c, "cli0:5", "GET a"); got != "NONE" {
				t.Fatalf("GET after DEL = %q", got)
			}
		})
	}
}

func TestKVConcurrentClients(t *testing.T) {
	c, err := StartCluster(testConfig(ModeCrane), newTestKV(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	const writers = 6
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				key := fmt.Sprintf("k%d", i)
				val := fmt.Sprintf("v%d-%d", i, j)
				resp, err := clients.Request(c.Dial, fmt.Sprintf("c%d:%d", i, j), 7000,
					[]byte("SET "+key+" "+val+"\n"), clients.UntilLine)
				if err != nil {
					errs <- err
					return
				}
				if !strings.HasPrefix(string(resp), "OK") {
					errs <- fmt.Errorf("SET resp %q", resp)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every key readable afterwards.
	for i := 0; i < writers; i++ {
		got := kvRequest(t, c, fmt.Sprintf("v%d:99", i), fmt.Sprintf("GET k%d", i))
		if !strings.HasPrefix(got, "VALUE ") {
			t.Fatalf("GET k%d = %q", i, got)
		}
	}
}

// TestPlanIConsistency is the paper's §7.2 plan I: with full CRANE, all
// replicas log identical network outputs despite network jitter.
func TestPlanIConsistency(t *testing.T) {
	c, err := StartCluster(testConfig(ModeCrane), newTestKV(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	dumpJournalsForCI(t, c, "plan-i-consistency")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clients.Request(c.Dial, fmt.Sprintf("pc%d:1", i), 7000,
				[]byte(fmt.Sprintf("SET key%d val%d\n", i%3, i)), clients.UntilLine)
		}(i)
	}
	wg.Wait()
	// Backups lag the primary by delivery latency; wait for them.
	if err := c.WaitOutputs(8, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitQuiescent(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	logs := c.OutputLogs()
	if len(logs) != 3 {
		t.Fatalf("%d output logs", len(logs))
	}
	if divs := trace.DiffAll(logs); len(divs) != 0 {
		t.Fatalf("plan I divergence: %v", divs)
	}
	assertNoDivergenceAlarms(t, c)
}

func TestBubblesInserted(t *testing.T) {
	c, err := StartCluster(testConfig(ModeCrane), newTestKV(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	kvRequest(t, c, "b:1", "SET x 1")
	kvRequest(t, c, "b:2", "GET x")
	st := c.SeqStats()
	if st.Bubbles == 0 {
		t.Fatal("no time bubbles were inserted")
	}
	if st.ClientCalls == 0 {
		t.Fatal("no client calls went through consensus")
	}
	if r := st.BubbleRatio(); r <= 0 || r >= 1 {
		t.Fatalf("bubble ratio = %f", r)
	}
}

func TestFailoverServesFromBackup(t *testing.T) {
	c, err := StartCluster(testConfig(ModeCrane), newTestKV(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if got := kvRequest(t, c, "f:1", "SET survivor yes"); got != "OK" {
		t.Fatalf("SET = %q", got)
	}
	// Let backups consume the state before the failure.
	if err := c.WaitQuiescent(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	oldID, err := c.FailPrimary()
	if err != nil {
		t.Fatal(err)
	}
	// A new primary emerges and serves the replicated state.
	if got := kvRequest(t, c, "f:2", "GET survivor"); got != "VALUE yes" {
		t.Fatalf("post-failover GET = %q", got)
	}
	p, err := c.Primary()
	if err != nil {
		t.Fatal(err)
	}
	if p.ID() == oldID {
		t.Fatal("failed replica still primary")
	}
}

// TestRequestSurvivesFailover: a client that knows the replicas'
// addresses but not which one leads finds the primary, before and after
// a failover, by clients.Request's retry alone. Its Dialer starts at the
// replica that served it last and takes the next one on each retry; the
// failed primary refuses the dial and a backup's proxy closes unanswered.
func TestRequestSurvivesFailover(t *testing.T) {
	c, err := StartCluster(testConfig(ModeCrane), newTestKV(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	at, dials := 0, 0
	roundRobin := func(client string, port int) (*simnet.Conn, error) {
		i := at % c.Replicas()
		at++
		dials++
		return c.Net().Dial(simnet.Addr(client), c.Addr(i, port))
	}
	request := func(client, line string) string {
		resp, err := clients.Request(roundRobin, client, 7000, []byte(line+"\n"), clients.UntilLine)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		at-- // back to the replica that answered
		return strings.TrimSpace(string(resp))
	}
	if got := request("rr:1", "SET key before"); got != "OK" {
		t.Fatalf("SET = %q", got)
	}
	if err := c.WaitQuiescent(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	oldID, err := c.FailPrimary()
	if err != nil {
		t.Fatal(err)
	}
	if at%c.Replicas() != oldID {
		t.Fatalf("SET served by replica%d, primary was replica%d", at%c.Replicas(), oldID)
	}
	dials = 0
	if got := request("rr:2", "GET key"); got != "VALUE before" {
		t.Fatalf("post-failover GET = %q", got)
	}
	if dials < 2 {
		t.Fatalf("post-failover GET took %d dial(s); the failed primary answered", dials)
	}
}

// TestWaitQuiescentWaitsForLaggingBackup: a backup that has not learned
// the last commits has nothing queued and no connection open, so it looks
// drained. WaitQuiescent must still wait until it has executed them.
func TestWaitQuiescentWaitsForLaggingBackup(t *testing.T) {
	c, err := StartCluster(testConfig(ModeCrane), newTestKV(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	p, err := c.Primary()
	if err != nil {
		t.Fatal(err)
	}
	lagging := (p.ID() + 1) % c.Replicas()
	c.PartitionReplica(lagging)
	if got := kvRequest(t, c, "lag:1", "SET lag 1"); got != "OK" {
		t.Fatalf("SET = %q", got)
	}
	if err := c.WaitQuiescent(300 * time.Millisecond); err == nil {
		t.Fatalf("WaitQuiescent returned while replica%d had executed none of the request", lagging)
	}
	c.HealReplica(lagging)
	if err := c.WaitQuiescent(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if divs := trace.DiffAll(c.OutputLogs()); len(divs) != 0 {
		t.Fatalf("output logs differ after the heal: %v", divs)
	}
}

func TestCheckpointAndRestoreReplica(t *testing.T) {
	c, err := StartCluster(testConfig(ModeCrane), newTestKV(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 0; i < 5; i++ {
		if got := kvRequest(t, c, fmt.Sprintf("ck:%d", i), fmt.Sprintf("SET k%d v%d", i, i)); got != "OK" {
			t.Fatalf("SET = %q", got)
		}
	}
	if err := c.WaitQuiescent(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	cp := checkpoint.New(checkpoint.Options{Backoff: time.Millisecond})
	ck, tm, err := c.CheckpointBackup(cp)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Index == 0 {
		t.Fatal("checkpoint at index 0")
	}
	if tm.CheckpointProcess <= 0 {
		t.Fatal("no process-checkpoint timing recorded")
	}

	// Fail a backup, then rebuild it from the shipped checkpoint.
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

	wire, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := checkpoint.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreReplica(victim, shipped); err != nil {
		t.Fatal(err)
	}
	// The restored replica's program state must contain the checkpointed
	// keys (restored instance, not replayed from scratch).
	restored := c.Replica(victim).inst.(*testKV)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		restored.mu.Lock()
		n := len(restored.data)
		restored.mu.Unlock()
		if n == 5 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	restored.mu.Lock()
	defer restored.mu.Unlock()
	t.Fatalf("restored replica has %d keys, want 5", len(restored.data))
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeNondet: "nondet", ModeParrotOnly: "parrot-only",
		ModePaxosOnly: "paxos-only", ModeCraneNoBubble: "crane-nobubble",
		ModeCrane: "crane", Mode(99): "Mode(99)",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
}

func TestStartClusterValidation(t *testing.T) {
	if _, err := StartCluster(Config{}, papi.Program{}); err == nil {
		t.Fatal("program without ports accepted")
	}
	if _, err := StartCluster(Config{}, papi.Program{Ports: []int{1}}); err == nil {
		t.Fatal("program without constructor accepted")
	}
}

func TestUnreplicatedModesForceOneReplica(t *testing.T) {
	c, err := StartCluster(Config{Mode: ModeNondet, Replicas: 3}, newTestKV(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if c.Replicas() != 1 {
		t.Fatalf("nondet cluster has %d replicas", c.Replicas())
	}
}
