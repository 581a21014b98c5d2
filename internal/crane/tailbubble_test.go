package crane

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"crane/internal/apps/clients"
	"crane/internal/apps/httpd"
	"crane/internal/apps/mysqld"
	"crane/internal/cfs"
	"crane/internal/papi"
	"crane/internal/seq"
)

// oneThreadServer serves one connection at a time on port 7200 from a single
// thread: it reads the connection to EOF, then closes it. Between two socket
// calls the thread is parked, so the lane sequences are empty whenever the
// test has let the previous entry be consumed.
func oneThreadServer() papi.Program {
	return papi.Program{
		Name:  "onethread",
		Ports: []int{7200},
		New: func(*cfs.FS) papi.Instance {
			return papi.FuncInstance{Main: func(t papi.T) {
				l, err := t.Listen(7200)
				if err != nil {
					return
				}
				buf := make([]byte, 16)
				for {
					c, err := l.Accept(t)
					if err != nil {
						return
					}
					for {
						if _, err := c.Recv(t, buf); err != nil {
							break
						}
					}
					c.Close(t)
				}
			}}
		},
	}
}

// quietConfig is testConfig with W_timeout at 10 s: no starvation round ever
// runs, so every bubble a test sees was carried by a burst. (A tail bubble is
// independent of W_timeout.)
func quietConfig(mode Mode) Config {
	cfg := testConfig(mode)
	cfg.Wtimeout = 10 * time.Second
	return cfg
}

// committedKinds records, in commit order, the kind of every entry replica r
// enqueues.
func committedKinds(r *Replica) func() []seq.Kind {
	var mu sync.Mutex
	var kinds []seq.Kind
	r.SetMangleDeliver(func(e *seq.Entry) []*seq.Entry {
		mu.Lock()
		kinds = append(kinds, e.Kind)
		mu.Unlock()
		return []*seq.Entry{e}
	})
	return func() []seq.Kind {
		mu.Lock()
		defer mu.Unlock()
		return append([]seq.Kind(nil), kinds...)
	}
}

// TestTailBubbleLoneSend: a SEND that finds the submit queue and the lane
// sequences empty is proposed as one ProposeBatch of [SEND, bubble]; the
// CONNECT before it and the CLOSE after it, which find the same, go alone.
func TestTailBubbleLoneSend(t *testing.T) {
	c, err := StartCluster(quietConfig(ModeCrane), oneThreadServer())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	p := currentPrimary(t, c)
	kinds := committedKinds(p)
	consumedEverywhere := func(calls uint64) func() bool {
		return func() bool {
			for i := 0; i < c.Replicas(); i++ {
				r := c.Replica(i)
				if r.sqs[0].Stats().Consumed < calls || !r.sqs[0].Empty() {
					return false
				}
			}
			return true
		}
	}
	bursts := func() (count, entries uint64) {
		return p.ro.burstSize.Count(), uint64(p.ro.burstSize.Sum())
	}

	d, err := c.Dial("tail:1", 7200)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	waitFor(t, 5*time.Second, "the CONNECT consumed", consumedEverywhere(1))
	if n := p.ro.tailBubbles.Value(); n != 0 {
		t.Fatalf("%d tail bubbles behind a CONNECT", n)
	}

	if _, err := d.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	// The parked server thread leaves the bubble to the idle thread, which
	// drains it in one turn: the sequences end up empty again.
	waitFor(t, 5*time.Second, "the SEND and its bubble consumed", consumedEverywhere(2))
	if got, want := kinds(), []seq.Kind{seq.KindConnect, seq.KindSend, seq.KindBubble}; !reflect.DeepEqual(got, want) {
		t.Fatalf("committed %v, want %v", got, want)
	}
	if count, entries := bursts(); count != 2 || entries != 3 {
		t.Fatalf("%d bursts carrying %d entries, want [CONNECT] and [SEND, bubble]", count, entries)
	}
	if tails, reqs := p.ro.tailBubbles.Value(), p.ro.bubbleReqs.Value(); tails != 1 || reqs != 0 {
		t.Fatalf("proxy_tail_bubbles_total=%d gate_bubble_requests_total=%d, want 1 and 0", tails, reqs)
	}
	// The bubble took a request id but was never admitted: two admissions,
	// and nothing left behind in the admit map once both were consumed.
	if n := p.ro.proxyAccepts.Value(); n != 2 {
		t.Fatalf("proxy_admitted_total=%d, want 2 (the bubble is not an admission)", n)
	}
	p.ro.mu.Lock()
	leaked := len(p.ro.admitTimes)
	p.ro.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d admit records left after every call was consumed", leaked)
	}
	if p.bubblePending.Load() {
		t.Fatal("bubblePending still set after the tail bubble reached the lane sequence")
	}
	for i := 0; i < c.Replicas(); i++ {
		if st := c.Replica(i).sqs[0].Stats(); st.Bubbles != 1 || st.BubbleClocks != p.cfg.Nclock {
			t.Fatalf("replica %d: %d bubbles, %d clocks, want 1 and %d", i, st.Bubbles, st.BubbleClocks, p.cfg.Nclock)
		}
	}

	d.Close()
	waitFor(t, 5*time.Second, "the CLOSE consumed", consumedEverywhere(3))
	if count, entries := bursts(); count != 3 || entries != 4 {
		t.Fatalf("%d bursts carrying %d entries after the CLOSE, want it alone in its burst", count, entries)
	}
	if n := p.ro.tailBubbles.Value(); n != 1 {
		t.Fatalf("%d tail bubbles after the CLOSE, want still 1", n)
	}
	assertNoDivergenceAlarms(t, c)
}

// TestTailBubbleConditions asks tailRound directly, through a proxy that was
// never started (its queues are the test's own) around a live replica.
func TestTailBubbleConditions(t *testing.T) {
	send := &seq.Entry{Kind: seq.KindSend, Conn: 1, Data: []byte("x")}
	c, err := StartCluster(quietConfig(ModeCrane), oneThreadServer())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	p := currentPrimary(t, c)
	px := newProxy(p)

	round := px.tailRound(0, send)
	if round == nil || len(round) != 1 {
		t.Fatalf("lone SEND on an idle primary: round %v, want one bubble", round)
	}
	if b := round[0]; b.Kind != seq.KindBubble || b.NClock != p.cfg.Nclock || b.Req == 0 {
		t.Fatalf("tail bubble %+v, want %d clocks and a request id", b, p.cfg.Nclock)
	}
	if !p.bubblePending.Load() {
		t.Fatal("the tail bubble's round is not marked outstanding")
	}
	p.bubblePending.Store(false)

	for _, last := range []*seq.Entry{
		{Kind: seq.KindConnect, Conn: 1, Port: 7200},
		{Kind: seq.KindClose, Conn: 1},
	} {
		if px.tailRound(0, last) != nil {
			t.Errorf("tail bubble behind a %v", last.Kind)
		}
	}

	px.subChs[0] <- submitReq{e: &seq.Entry{Kind: seq.KindConnect, Conn: 2}}
	if px.tailRound(0, send) != nil {
		t.Error("tail bubble with another entry queued")
	}
	<-px.subChs[0]

	backup := c.Replica((p.ID() + 1) % c.Replicas())
	if newProxy(backup).tailRound(0, send) != nil {
		t.Error("tail bubble on a replica that is not primary")
	}

	// A SEND for a connection nobody reads stays at the head for good.
	p.sqs[0].Enqueue(&seq.Entry{Kind: seq.KindSend, Conn: 99, Data: []byte("y")})
	if px.tailRound(0, send) != nil {
		t.Error("tail bubble with a lane sequence non-empty")
	}
	if p.bubblePending.Load() {
		t.Error("a refused tail bubble left a round outstanding")
	}

	nb, err := StartCluster(quietConfig(ModeCraneNoBubble), oneThreadServer())
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Stop()
	if np := currentPrimary(t, nb); newProxy(np).tailRound(0, send) != nil {
		t.Error("tail bubble in ModeCraneNoBubble")
	}
}

// TestTailBubbleFailedProposeReleasesRound: the burst's ProposeBatch fails
// after the tail bubble opened its round. The round must not stay outstanding,
// or the gate would sleep out bubbleGrace before asking for the bubble nobody
// proposed.
func TestTailBubbleFailedProposeReleasesRound(t *testing.T) {
	c, err := StartCluster(quietConfig(ModeCrane), oneThreadServer())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	p := currentPrimary(t, c)
	d, err := c.Dial("tail:1", 7200)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	waitFor(t, 5*time.Second, "the CONNECT consumed", func() bool {
		return p.sqs[0].Stats().Consumed >= 1 && p.sqs[0].Empty()
	})
	// A stopped node still reports the view it last knew, so tailRound sees a
	// primary; its ProposeBatch returns ErrStopped.
	p.nodes[0].Stop()
	rejects := p.ro.proxyRejects.Value()
	if _, err := d.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the SEND refused", func() bool {
		return p.ro.proxyRejects.Value() > rejects
	})
	if p.bubblePending.Load() {
		t.Fatal("bubblePending still set after the burst carrying the tail bubble failed")
	}
	if n := p.ro.tailBubbles.Value(); n != 0 {
		t.Fatalf("proxy_tail_bubbles_total=%d for a burst that was never proposed", n)
	}
}

// loadCounts is what a load phase cost the primary: client calls and bubbles
// enqueued (all lanes), clock grants by origin.
type loadCounts struct{ calls, bubbles, starved, tails uint64 }

func countLoad(p *Replica) loadCounts {
	st := p.SeqStats()
	return loadCounts{st.ClientCalls, st.Bubbles, p.ro.bubbleReqs.Value(), p.ro.tailBubbles.Value()}
}

func (a loadCounts) since(b loadCounts) loadCounts {
	return loadCounts{a.calls - b.calls, a.bubbles - b.bubbles, a.starved - b.starved, a.tails - b.tails}
}

// assertOneStarvationRoundPerRequest is the saving as a count: a request pays
// at most one bubble-only round, and bursts did carry bubbles. (This 2-client
// closed loop, 5 runs without the race detector: 0.5–0.65 starvation rounds
// per request on MySQL and 0.6–0.75 on Apache at the parent commit, 0.2–0.35
// and 0.45–0.65 here. Under the race detector both sides run in another
// regime, so only the bound is asserted.)
func assertOneStarvationRoundPerRequest(t *testing.T, p *Replica, d loadCounts, requests uint64) {
	t.Helper()
	t.Logf("%d requests: %d starvation rounds, %d tail bubbles, %d bubbles over %d client calls",
		requests, d.starved, d.tails, d.bubbles, d.calls)
	if d.starved > requests {
		t.Errorf("%d starvation rounds for %d requests: more than one bubble-only round per request", d.starved, requests)
	}
	if p.ro.tailBubbles.Value() == 0 {
		t.Error("no burst carried its own bubble, not even the serial requests before the load")
	}
}

// TestTailBubbleMySQLOneLane: 3 replicas, 2 concurrent sysbench clients, the
// default one-lane pipeline. Bursts carry their own bubbles, the replicas'
// schedules stay identical, and a request pays at most one bubble-only round.
func TestTailBubbleMySQLOneLane(t *testing.T) {
	const requests = 60
	c, p, load := runSysBench(t, 2, requests)
	defer c.Stop()
	assertLaneSchedulesAgree(t, c, 1)
	assertOneStarvationRoundPerRequest(t, p, load, requests)
}

// runSysBench starts the 3-replica one-lane MySQL deployment with statements
// of the benchmark's size (~1.2 ms), prepares the table, runs requests point
// SELECTs over conns concurrent connections and returns what that load cost
// the primary. The caller stops the cluster.
func runSysBench(t *testing.T, conns, requests int) (*Cluster, *Replica, loadCounts) {
	t.Helper()
	if testing.Short() {
		t.Skip("cluster workload in -short mode")
	}
	mcfg := mysqld.DefaultConfig()
	mcfg.Workers = max(8, conns)
	mcfg.WorkPerQuery = 4000
	ccfg := integrationConfig(ModeCrane)
	c, err := StartCluster(ccfg, mysqld.Program(mcfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := clients.SysBenchPrepare(c.Dial, "prep:1", 3306, 20); err != nil {
		c.Stop()
		t.Fatal(err)
	}
	p := currentPrimary(t, c)
	before := countLoad(p)
	if sum := clients.SysBench(c.Dial, 3306, 20, conns, requests); sum.Errors != 0 {
		c.Stop()
		t.Fatalf("sysbench: %+v", sum)
	}
	return c, p, countLoad(p).since(before)
}

// TestTailBubbleApacheTwoLanes is the same contract with two execution lanes:
// the tail bubble is cloned into both like any bubble, and the cross-lane
// merge stamps still agree.
func TestTailBubbleApacheTwoLanes(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster workload in -short mode")
	}
	hcfg := httpd.DefaultConfig()
	hcfg.Workers = 8
	hcfg.PHPChunks = 3
	hcfg.PHPChunkWork = 1000
	hcfg.CacheEnabled = false
	ccfg := integrationConfig(ModeCrane)
	ccfg.Lanes = 2
	c, err := StartCluster(ccfg, httpd.Program(hcfg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	p := currentPrimary(t, c)
	// Serial requests first: each finds the pipeline idle.
	if sum := clients.ApacheBench(c.Dial, 8080, "/page0.php", 1, 4); sum.Errors != 0 {
		t.Fatalf("ab warm-up: %+v", sum)
	}
	before := countLoad(p)
	const requests = 32
	if sum := clients.ApacheBench(c.Dial, 8080, "/page0.php", 2, requests); sum.Errors != 0 {
		t.Fatalf("ab: %+v", sum)
	}
	load := countLoad(p).since(before)
	assertLaneSchedulesAgree(t, c, 2)
	assertOneStarvationRoundPerRequest(t, p, load, requests)
}

// TestTailBubbleGuardUnderBurst: 16 connections at once keep the submit queue
// or a lane sequence non-empty nearly all the time, so the conditions are
// mostly false, hardly any burst carries a bubble and the pipeline spends as
// few bubbles per client call as it did without the rule (0–2 bubbles over the
// 961 client calls of this load at the parent commit, 1–3 here).
func TestTailBubbleGuardUnderBurst(t *testing.T) {
	const requests = 320
	c, _, load := runSysBench(t, 16, requests)
	defer c.Stop()
	assertLaneSchedulesAgree(t, c, 1)
	t.Logf("%d requests at 16 connections: %d tail bubbles, %d starvation rounds, %d bubbles over %d client calls",
		requests, load.tails, load.starved, load.bubbles, load.calls)
	if load.tails*10 > requests {
		t.Errorf("%d tail bubbles for %d requests: the guard should keep them rare under a burst", load.tails, requests)
	}
	if load.bubbles*50 > load.calls {
		t.Errorf("%d bubbles for %d client calls: a saturated pipeline should hardly need any", load.bubbles, load.calls)
	}
}

// TestTailBubbleTwoGroups: sharded, the rest of the tail bubble's round goes
// to the other group at once, and the merge emits the SEND when that
// companion commits. W_timeout is 10 s, so no starvation round could have
// done it: without the companion the CONNECT and the SEND would sit in the
// merge behind the idle group's watermark.
func TestTailBubbleTwoGroups(t *testing.T) {
	cfg := quietConfig(ModeCrane)
	cfg.Groups = 2
	c, err := StartCluster(cfg, oneThreadServer())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	p := currentPrimary(t, c)
	waitFor(t, 5*time.Second, "one replica leading both groups", p.LeadsAllGroups)
	d, err := c.Dial("tail:1", 7200)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "every replica consumed the CONNECT and the SEND", func() bool {
		for i := 0; i < c.Replicas(); i++ {
			if c.Replica(i).sqs[0].Stats().Consumed < 2 {
				return false
			}
		}
		return true
	})
	if tails, reqs := p.ro.tailBubbles.Value(), p.ro.bubbleReqs.Value(); tails != 1 || reqs != 0 {
		t.Fatalf("proxy_tail_bubbles_total=%d gate_bubble_requests_total=%d, want 1 and 0", tails, reqs)
	}
	// One group committed CONNECT, SEND and the tail bubble, the other the
	// companion alone — which is what the merge still holds: the round's own
	// tail parks behind the group that is empty again.
	idx := []uint64{p.GroupNode(0).CommitIndex(), p.GroupNode(1).CommitIndex()}
	if !(idx[0] == 3 && idx[1] == 1) && !(idx[0] == 1 && idx[1] == 3) {
		t.Fatalf("group commit indexes %v, want 3 and 1", idx)
	}
	for i := 0; i < c.Replicas(); i++ {
		r := c.Replica(i)
		if gs := r.GroupStats(); gs.Emitted != 3 || gs.Pending != 1 || gs.PendingClient != 0 {
			t.Errorf("replica %d merge stats %+v, want 3 emitted and the companion bubble parked", i, gs)
		}
		if st := r.sqs[0].Stats(); st.Bubbles != 1 {
			t.Errorf("replica %d consumed %d bubbles, want the tail bubble only", i, st.Bubbles)
		}
	}
	assertNoDivergenceAlarms(t, c)
}

// TestTailBubbleSpeculationRollback: a stranded primary feeds a [SEND, bubble]
// burst to its speculator, consumes both ahead of a commit that never comes,
// and is healed. The bubble's clocks are consumed speculation like the SEND,
// so the replica fail-stops; after RestartReplica all three have
// bit-identical ScheduleSums and outputs.
func TestTailBubbleSpeculationRollback(t *testing.T) {
	c, err := StartCluster(specClusterConfig(t), httpd.Program(detHTTPDConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	waitScheduleStable(t, c)
	var tails0 uint64
	old := forceSpecAbortAfter(t, c, "TAILBUBBLE-CANARY", func(p *Replica) {
		// Let the PUT find the stranded primary idle, and keep it idle until
		// the PUT arrives: once the lane sequence is empty and no bubble round
		// is outstanding, the test claims the gate's round itself, with a
		// grace that cannot run out. No starvation bubble can then be fed in
		// ahead of the canary, however long the PUT takes to reach the
		// submit path; its burst is [SEND, bubble], and that tail round
		// re-stamps bubbleSince like any round.
		waitFor(t, 5*time.Second, "an idle window on the stranded primary", func() bool {
			return p.openConns.Load() == 1 && p.sqs[0].Empty() && p.bubblePending.CompareAndSwap(false, true)
		})
		p.bubbleSince.Store(time.Now().Add(time.Hour).UnixNano())
		tails0 = p.ro.tailBubbles.Value()
	})
	// The speculator feeds a burst before its Accept round goes out, so the
	// canary can be consumed and answered before the submit path has
	// proposed [SEND, bubble] and counted the tail bubble: wait for the
	// count. Nothing else on the stranded primary sends.
	stranded := c.Replica(old)
	waitFor(t, 5*time.Second, "the canary's SEND to carry a tail bubble into the speculation window", func() bool {
		return stranded.ro.tailBubbles.Value() > tails0
	})

	if _, err := clients.Request(newPrimary(t, c, old), "nb:1", 8080, []byte(indexGET), untilClose); err != nil {
		t.Fatalf("new primary served nothing: %v", err)
	}
	healAndRestart(t, c, old, "TAILBUBBLE-CANARY")
}
