package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"crane/internal/dmt"
	"crane/internal/paxos"
	"crane/internal/seq"
	"crane/internal/simnet"
	"crane/internal/wal"
)

// The layer drivers time calls into each layer's public functions, so a
// regression found end to end can be pinned on a layer. Every driver runs
// a fixed number of operations on fixed payloads (nothing time-derived
// reaches a layer) and the whole set stays under about two seconds. The
// functions they call are the frozen list in README.md.

var (
	payload256 = fixedPayload(256)
	payload1K  = fixedPayload(1024)
)

func fixedPayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}

// p50Micros times op n times and returns the median in microseconds.
func p50Micros(n int, op func() error) (float64, error) {
	d := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := now()
		if err := op(); err != nil {
			return 0, err
		}
		d = append(d, float64(since(t0))/1e3)
	}
	return median(d), nil
}

// nsPerOp times n calls of op as one interval.
func nsPerOp(n int, op func()) float64 {
	t0 := now()
	for i := 0; i < n; i++ {
		op()
	}
	return float64(since(t0)) / float64(n)
}

func (rep *report) runDrivers() {
	for _, drv := range []struct {
		name string
		run  func(*report) error
	}{
		{"simnet", driveSimnet}, {"paxos", drivePaxos}, {"groupmux", driveGroupMux},
		{"wal", driveWAL}, {"seq", driveSeq}, {"dmt", driveDMT},
	} {
		if err := drv.run(rep); err != nil {
			rep.fail("%s driver: %v", drv.name, err)
		}
	}
}

// driveSimnet: an echo round trip at the deployment's latency and jitter,
// and a 1 KB write+read on a zero-latency pipe.
func driveSimnet(rep *report) error {
	pair := func(opts simnet.Options) (client, server *simnet.Conn, err error) {
		n := simnet.New(opts)
		l, err := n.Listen("srv:1")
		if err != nil {
			return nil, nil, err
		}
		if client, err = n.Dial("cli:0", "srv:1"); err != nil {
			return nil, nil, err
		}
		server, err = l.Accept()
		return client, server, err
	}
	client, server, err := pair(simnet.Options{Latency: clientLatency, Jitter: clientJitter, Seed: rep.o.seed})
	if err != nil {
		return err
	}
	const trips = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // echo server
		defer wg.Done()
		buf := make([]byte, 256)
		for i := 0; i < trips; i++ {
			n, err := server.Read(buf)
			if err != nil {
				return
			}
			if _, err := server.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	buf := make([]byte, 256)
	client.SetReadDeadline(now().Add(5 * time.Second))
	rtt, err := p50Micros(trips, func() error {
		if _, err := client.Write(payload256[:64]); err != nil {
			return err
		}
		_, err := client.Read(buf)
		return err
	})
	client.Close()
	server.Close()
	wg.Wait()
	if err != nil {
		return err
	}
	rep.observe("simnet.rtt_us_p50", rtt)

	client, server, err = pair(simnet.Options{})
	if err != nil {
		return err
	}
	defer client.Close()
	defer server.Close()
	big := make([]byte, 2048)
	var opErr error
	ns := nsPerOp(20000, func() {
		if _, err := client.Write(payload1K); err != nil {
			opErr = err
		}
		if _, err := server.Read(big); err != nil {
			opErr = err
		}
	})
	rep.observe("simnet.write_read_ns_op", ns)
	return opErr
}

// paxosCluster starts a three-node group on a hub with the deployment's
// injected delay and waits for node 0 to lead. delivered counts node 0's
// OnDeliver calls.
func paxosCluster(seed int64) (nodes []*paxos.Node, delivered *atomic.Int64, stop func(), err error) {
	hub := paxos.NewChanHub(hubLatency, hubJitter, 0, seed)
	delivered = new(atomic.Int64)
	stop = func() {
		for _, n := range nodes {
			n.Stop()
		}
		hub.Close()
	}
	for i := 0; i < replicas; i++ {
		cfg := paxos.Config{
			ID: i, Peers: []int{0, 1, 2}, Transport: hub.Endpoint(i),
			HeartbeatInterval: heartbeat,
			ElectionTimeout:   2 * time.Second, // no election may disturb the timing
		}
		if i == 0 {
			cfg.OnDeliver = func(paxos.LogEntry) { delivered.Add(1) }
		}
		n, err := paxos.NewNode(cfg)
		if err != nil {
			stop()
			return nil, nil, nil, err
		}
		nodes = append(nodes, n)
		n.Start()
	}
	for deadline := now().Add(5 * time.Second); !nodes[0].IsPrimary(); {
		if now().After(deadline) {
			stop()
			return nil, nil, nil, fmt.Errorf("no primary elected")
		}
		time.Sleep(time.Millisecond)
	}
	return nodes, delivered, stop, nil
}

func waitDelivered(delivered *atomic.Int64, want int64) error {
	for deadline := now().Add(10 * time.Second); delivered.Load() < want; {
		if now().After(deadline) {
			return fmt.Errorf("commit stalled at %d of %d", delivered.Load(), want)
		}
		time.Sleep(20 * time.Microsecond)
	}
	return nil
}

// drivePaxos: one proposal at a time to its commit, then eight proposers
// each submitting bursts of eight.
func drivePaxos(rep *report) error {
	nodes, delivered, stop, err := paxosCluster(rep.o.seed)
	if err != nil {
		return err
	}
	defer stop()
	var done int64
	commit, err := p50Micros(300, func() error {
		if err := nodes[0].Propose(payload256[:64]); err != nil {
			return err
		}
		done++
		return waitDelivered(delivered, done)
	})
	if err != nil {
		return err
	}
	rep.observe("paxos.commit_us_p50", commit)

	const proposers, bursts, burst = 8, 50, 8
	batch := make([][]byte, burst)
	for i := range batch {
		batch[i] = payload256[:64]
	}
	errs := make(chan error, proposers)
	t0 := now()
	for p := 0; p < proposers; p++ {
		go func() {
			for b := 0; b < bursts; b++ {
				if err := nodes[0].ProposeBatch(batch); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for p := 0; p < proposers; p++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	total := int64(proposers * bursts * burst)
	if err := waitDelivered(delivered, done+total); err != nil {
		return err
	}
	rep.observe("paxos.entries_per_s", float64(total)/since(t0).Seconds())
	return nil
}

// driveGroupMux: framing and dispatch of a two-port mux over an instant hub.
func driveGroupMux(rep *report) error {
	hub := paxos.NewChanHub(0, 0, 0, 1)
	defer hub.Close()
	sender := paxos.NewGroupMux(hub.Endpoint(0))
	receiver := paxos.NewGroupMux(hub.Endpoint(1))
	var got atomic.Int64
	out := make([]paxos.Transport, 2)
	for g := range out {
		out[g] = sender.Port(g)
		receiver.Port(g).SetHandler(func(paxos.Message) { got.Add(1) })
	}
	// Windows of 1000 stay well inside the endpoint's 4096-message inbox.
	const windows, window = 20, 1000
	msg := paxos.Message{Type: paxos.MsgHeartbeat, From: 0}
	t0 := now()
	for w := 1; w <= windows; w++ {
		for i := 0; i < window; i++ {
			if err := out[i%2].Send(1, msg); err != nil {
				return err
			}
		}
		if err := waitDelivered(&got, int64(w*window)); err != nil {
			return err
		}
	}
	rep.observe("paxos.groupmux_ns_op", float64(since(t0))/(windows*window))
	return nil
}

// driveWAL: single appends without and with fsync, and synced batches of
// sixteen, on a scratch directory next to the run's own WALs.
func driveWAL(rep *report) error {
	for _, c := range []struct {
		metric string
		noSync bool
		batch  int
		ops    int
	}{
		{"wal.append_us_p50", true, 1, 2000},
		{"wal.append_sync_us_p50", false, 1, 100},
		{"wal.batch16_sync_us_p50", false, 16, 50},
	} {
		dir, err := newTempDir("driver-wal-")
		if err != nil {
			return err
		}
		log, err := wal.Open(dir, wal.Options{NoSync: c.noSync})
		if err != nil {
			return err
		}
		next := uint64(1)
		us, err := p50Micros(c.ops, func() error {
			recs := make([]wal.Record, c.batch)
			for i := range recs {
				recs[i] = wal.Record{Index: next, View: 1, Payload: payload256}
				next++
			}
			return log.AppendBatch(recs)
		})
		if cerr := log.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", c.metric, err)
		}
		rep.observe(c.metric, us)
	}
	return nil
}

// driveSeq: enqueue+consume of one SEND, a 16 x 256 B batch through the
// codec, and the two-group merge per delivered entry.
func driveSeq(rep *report) error {
	s := seq.New()
	buf := make([]byte, 512)
	idx := uint64(0)
	rep.observe("seq.enqueue_consume_ns_op", nsPerOp(20000, func() {
		idx++
		s.Enqueue(&seq.Entry{Index: idx, Kind: seq.KindSend, Conn: 1, Data: payload256})
		s.ReadInto(1, buf)
	}))

	burst := make([]*seq.Entry, 16)
	for i := range burst {
		burst[i] = &seq.Entry{Index: uint64(i), Kind: seq.KindSend, Conn: 7, Data: payload256}
	}
	var codecErr error
	rep.observe("seq.codec_ns_op", nsPerOp(2000, func() {
		payloads, err := seq.EncodeBatch(burst)
		if err == nil {
			_, err = seq.DecodeBatch(payloads)
		}
		if err != nil {
			codecErr = err
		}
	}))
	if codecErr != nil {
		return codecErr
	}

	const groups = 2
	merged := 0
	g := seq.NewGroups(groups, func(*seq.Entry) { merged++ })
	stamp := uint64(0)
	const deliveries = 20000
	ns := nsPerOp(deliveries, func() {
		stamp++
		e := &seq.Entry{Kind: seq.KindSend, Conn: stamp, Stamp: stamp}
		if stamp%8 == 0 { // a bubble round lets the merge pass the other group
			e.Kind = seq.KindBubble
			e.Vec = []uint64{stamp, stamp}
		}
		g.Deliver(int(stamp%groups), e)
	})
	if merged == 0 {
		return fmt.Errorf("groups merge emitted nothing")
	}
	rep.observe("seq.groups_merge_ns_per_entry", ns)
	return nil
}

// driveDMT: token handoff between two runnable threads, and a wait/signal
// ping-pong, on a bare scheduler.
func driveDMT(rep *report) error {
	const ops = 20000
	run := func(body func(th *dmt.Thread, me int)) float64 {
		s := dmt.New()
		var wg sync.WaitGroup
		wg.Add(2)
		t0 := now()
		for i := 0; i < 2; i++ {
			s.Spawn(nil, fmt.Sprintf("drv%d", i), func(th *dmt.Thread) {
				defer wg.Done()
				body(th, i)
			})
		}
		wg.Wait()
		elapsed := since(t0)
		s.Kill()
		s.Join()
		return float64(elapsed) / (2 * ops)
	}
	rep.observe("dmt.handoff_ns_op", run(func(th *dmt.Thread, _ int) {
		for i := 0; i < ops; i++ {
			th.GetTurn()
			th.PutTurn()
		}
	}))
	keys := [2]*dmt.Cond{new(dmt.Cond), new(dmt.Cond)}
	rep.observe("dmt.wait_signal_ns_op", run(func(th *dmt.Thread, me int) {
		mine, peer := keys[me], keys[1-me]
		for i := 0; i < ops; i++ {
			th.GetTurn()
			th.SignalKey(peer)
			th.WaitOn(mine)
			th.PutTurn()
		}
		th.GetTurn() // release the peer's final wait
		th.SignalKey(peer)
		th.PutTurn()
	}))
	return nil
}
