package crane

import (
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crane/internal/obs"
	"crane/internal/obs/flight"
	"crane/internal/paxos"
	"crane/internal/seq"
)

// replicaObs is one replica's observability state: the instrument registry
// every layer (proxy, paxos, wal, seq, dmt) registers into, the lifecycle
// tracer, and the request-id machinery that threads one id from proxy
// admission through consensus, WAL persist, DMT turn, execution, and output.
type replicaObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	srv    *obs.Server

	reqSeq atomic.Uint64 // per-replica admission counter

	mu         sync.Mutex
	admitTimes map[uint64]time.Time // req -> admission time (admitting primary only)
	connReq    map[uint64]uint64    // conn -> last consumed req (output attribution)
	specExeced map[uint64]bool      // req -> consumed speculatively, commit pending

	proxyAccepts  *obs.Counter   // socket calls admitted by the proxy
	proxyRejects  *obs.Counter   // admissions refused (not primary / shutdown)
	burstSize     *obs.Histogram // value: entries per proxy ProposeBatch burst
	admitToCommit *obs.Histogram // admission -> consensus commit (primary)
	admitToExec   *obs.Histogram // admission -> DMT consumption (primary)
	bulkBubbles   *obs.Counter   // bubbles the gate drained in one idle turn
	bulkClocks    *obs.Counter   // logical clocks those drains consumed
	wtimeoutLate  *obs.Histogram // how late the gate's bubble-request deadline ran
	bubbleReqs    *obs.Counter   // starvation rounds that proposed a bubble
	tailBubbles   *obs.Counter   // bubbles that rode the burst of the SEND they follow
}

// newReplicaObs builds the registry and instruments for one replica. The
// tracer is nil unless cfg.TraceCapacity > 0 (tracing is opt-in; a nil
// tracer discards events).
func newReplicaObs(r *Replica) *replicaObs {
	reg := obs.NewRegistry()
	ro := &replicaObs{
		reg:        reg,
		tracer:     obs.NewTracer(r.cfg.TraceCapacity),
		admitTimes: make(map[uint64]time.Time),
		connReq:    make(map[uint64]uint64),
		specExeced: make(map[uint64]bool),
		proxyAccepts: reg.Counter("proxy_admitted_total",
			"socket calls admitted by the proxy for consensus"),
		proxyRejects: reg.Counter("proxy_rejected_total",
			"socket-call admissions refused (not primary or shutting down)"),
		burstSize: reg.ValueHistogram("proxy_burst_entries",
			"socket calls coalesced per consensus submission burst"),
		admitToCommit: reg.Histogram("proxy_admit_to_commit_seconds",
			"proxy admission to consensus commit"),
		admitToExec: reg.Histogram("proxy_admit_to_exec_seconds",
			"proxy admission to DMT-turn consumption by the server"),
		bulkBubbles: reg.Counter("gate_bubbles_bulk_drained_total",
			"time bubbles whose remaining clocks the idle thread of a parked lane consumed in one turn"),
		bulkClocks: reg.Counter("gate_bubble_clocks_bulk_total",
			"logical clocks consumed by bulk bubble drains (the O(1) share of seq_bubble_clocks_total, all lanes)"),
		wtimeoutLate: reg.Histogram("gate_wtimeout_lateness_seconds",
			"how long after the time it was armed for the gate's bubble-request deadline ran (waits ended by the deadline only)"),
		bubbleReqs: reg.Counter("gate_bubble_requests_total",
			"starvation rounds in which this replica proposed time bubbles (one per round, whatever the number of groups)"),
		tailBubbles: reg.Counter("proxy_tail_bubbles_total",
			"time bubbles appended to the burst of the SEND they follow, committed in its Accept round (the clock grants that did not wait for a starvation round)"),
	}
	reg.GaugeFunc("crane_open_conns", "alive server-side connections", func() float64 {
		return float64(r.openConns.Load())
	})
	reg.GaugeFunc("trace_dropped_total", "lifecycle-trace events overwritten after the ring filled", func() float64 {
		return float64(ro.tracer.Dropped())
	})
	return ro
}

// assignReq allocates a request id unique across replicas: the replica id in
// the high bits (like connection ids) and an admission counter below.
func (ro *replicaObs) assignReq(replicaID int) uint64 {
	return uint64(replicaID+1)<<48 | ro.reqSeq.Add(1)
}

// recordAdmit stamps a client socket call at proxy admission. Only the
// admitting replica (the primary) holds the admit time; bubbles never pass
// through here, so the map cannot leak entries that nothing consumes.
func (ro *replicaObs) recordAdmit(req, conn uint64) {
	now := time.Now()
	ro.mu.Lock()
	ro.admitTimes[req] = now
	ro.mu.Unlock()
	ro.proxyAccepts.Inc()
	ro.tracer.Record(obs.SpanEvent{Req: req, Conn: conn, Stage: obs.StageAdmit, Wall: now.UnixNano()})
}

// recordProposed marks a burst entry accepted for consensus ordering.
func (ro *replicaObs) recordProposed(e *seq.Entry) {
	if e.Req == 0 {
		return
	}
	ro.tracer.Record(obs.SpanEvent{Req: e.Req, Conn: e.Conn, Stage: obs.StageProposed})
}

// recordCommitted marks an entry's consensus commit in group g (0 unless
// sharded). Every replica records the stage; the admit-to-commit latency is
// observable only where the admission happened (the map lookup misses
// elsewhere). The admit time stays mapped until consumption so
// admit-to-exec can still be measured.
func (ro *replicaObs) recordCommitted(e *seq.Entry, g int) {
	if e.Req == 0 {
		return
	}
	ro.mu.Lock()
	t0, ok := ro.admitTimes[e.Req]
	ro.mu.Unlock()
	if ok {
		ro.admitToCommit.Since(t0)
	}
	ro.tracer.Record(obs.SpanEvent{Req: e.Req, Conn: e.Conn, Index: e.Index,
		Stage: obs.StageCommit, Group: g})
}

// recordConsumed marks an entry fully consumed by the server at its DMT
// turn. Runs inside the sequence's consumption hook (under sq.mu): it only
// touches ro.mu, the instruments, and the tracer — never the sequence or
// the scheduler lock (logical comes from the scheduler's atomic mirror).
func (ro *replicaObs) recordConsumed(e *seq.Entry, logical uint64, lane, group int) {
	if e.Req == 0 {
		return
	}
	if e.Spec {
		// Consumed ahead of commit: this IS the admit-to-exec moment — the
		// latency the speculation layer exists to shorten. The admit time
		// stays mapped (recordConfirmed cleans it up at commit, so
		// admit-to-commit still measures) and the consumed stage is
		// deferred to confirmation, when the consensus index is known.
		// Reading e.Spec here is safe: the hook runs under the sequence
		// lock, the same lock ClearSpec mutates the flag under.
		ro.mu.Lock()
		t0, ok := ro.admitTimes[e.Req]
		ro.specExeced[e.Req] = true
		if e.Conn != 0 {
			ro.connReq[e.Conn] = e.Req
		}
		ro.mu.Unlock()
		if ok {
			ro.admitToExec.Since(t0)
		}
		ro.tracer.Record(obs.SpanEvent{Req: e.Req, Conn: e.Conn,
			Stage: obs.StageSpecExec, Logical: logical, Lane: lane, Group: group})
		return
	}
	ro.mu.Lock()
	t0, ok := ro.admitTimes[e.Req]
	if ok {
		delete(ro.admitTimes, e.Req)
	}
	if e.Conn != 0 {
		ro.connReq[e.Conn] = e.Req
	}
	ro.mu.Unlock()
	if ok {
		ro.admitToExec.Since(t0)
	}
	ro.tracer.Record(obs.SpanEvent{Req: e.Req, Conn: e.Conn, Index: e.Index,
		Stage: obs.StageConsumed, Logical: logical, Lane: lane, Group: group})
}

// recordConfirmed closes the loop on a speculatively consumed entry: its
// commit arrived and matched. Emits the consumed stage (now that the
// consensus index exists) and releases the admit-time entry. No-ops when
// the entry was not consumed speculatively — the race where the commit
// confirms while consumption is mid-flight resolves to the normal path
// (ClearSpec flips the flag before the pop, so the consumption hook
// records everything itself).
func (ro *replicaObs) recordConfirmed(req, conn, index uint64) {
	if req == 0 {
		return
	}
	ro.mu.Lock()
	wasSpec := ro.specExeced[req]
	if wasSpec {
		delete(ro.specExeced, req)
		delete(ro.admitTimes, req)
	}
	ro.mu.Unlock()
	if wasSpec {
		ro.tracer.Record(obs.SpanEvent{Req: req, Conn: conn, Index: index,
			Stage: obs.StageConsumed})
	}
}

// dropSpec forgets an aborted speculative entry's bookkeeping so a later
// consumption of the same request (should the new view commit it after
// all) does not record a bogus admit-to-exec latency.
func (ro *replicaObs) dropSpec(req uint64) {
	if req == 0 {
		return
	}
	ro.mu.Lock()
	delete(ro.specExeced, req)
	delete(ro.admitTimes, req)
	ro.mu.Unlock()
}

// recordOutput marks a server response on conn. Outputs carry no request id
// of their own; they are attributed to the last request consumed on the
// connection (the request/response flow of the example servers).
func (ro *replicaObs) recordOutput(conn uint64, logical uint64, lane, group int) {
	ro.mu.Lock()
	req := ro.connReq[conn]
	ro.mu.Unlock()
	ro.tracer.Record(obs.SpanEvent{Req: req, Conn: conn, Stage: obs.StageOutput,
		Logical: logical, Lane: lane, Group: group})
}

// rejectAdmit counts a refused admission and forgets its admit time (the
// request will never commit or be consumed, so the entry would leak).
func (ro *replicaObs) rejectAdmit(req uint64) {
	ro.mu.Lock()
	delete(ro.admitTimes, req)
	ro.mu.Unlock()
	ro.proxyRejects.Inc()
}

// dropConnReq forgets a closed connection's output attribution.
func (ro *replicaObs) dropConnReq(conn uint64) {
	ro.mu.Lock()
	delete(ro.connReq, conn)
	ro.mu.Unlock()
}

// registerTransportStats exposes a consensus transport's counters through
// the registry.
func registerTransportStats(reg *obs.Registry, stats func() paxos.TransportStats) {
	reg.GaugeFunc("transport_msgs_sent_total", "consensus messages sent", func() float64 {
		return float64(stats().Sent)
	})
	reg.GaugeFunc("transport_msgs_received_total", "consensus messages delivered", func() float64 {
		return float64(stats().MsgsReceived)
	})
	reg.GaugeFunc("transport_drops_total", "outbound loss plus inbox overflow drops", func() float64 {
		s := stats()
		return float64(s.LossDropped + s.InboxDropped)
	})
}

// serve starts the replica's scrape endpoint when addr is non-empty.
// journal is nil-safe: a recorder-less replica serves 404 at /journal.
func (ro *replicaObs) serve(addr string, health func() obs.Health, rec *flight.Recorder) error {
	if addr == "" {
		return nil
	}
	var journal func(io.Writer) error
	if rec != nil {
		journal = rec.WriteJSONL
	}
	srv, err := obs.StartServer(addr, ro.reg, health, ro.tracer, journal)
	if err != nil {
		return err
	}
	ro.srv = srv
	return nil
}

func (ro *replicaObs) close() {
	if ro.srv != nil {
		ro.srv.Close()
	}
}

// metricsAddrFor derives replica id's scrape address from the configured
// base address: the port is offset by id so a cluster on one machine gets
// one endpoint per replica (":0" stays ":0" — every replica picks a free
// port).
func metricsAddrFor(base string, id int) (string, error) {
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return "", fmt.Errorf("crane: metrics addr %q: %w", base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("crane: metrics addr %q: %w", base, err)
	}
	if port != 0 {
		port += id
	}
	return net.JoinHostPort(host, strconv.Itoa(port)), nil
}
