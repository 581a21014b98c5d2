package crane

import (
	"errors"
	"fmt"
	"io"
	"time"

	"crane/internal/analysis"
	"crane/internal/checkpoint"
	"crane/internal/papi"
	"crane/internal/paxos"
	"crane/internal/seq"
	"crane/internal/simnet"
	"crane/internal/trace"
)

// Config configures a cluster.
type Config struct {
	// Mode selects the execution configuration. Un-replicated modes
	// (ModeNondet, ModeParrotOnly) force Replicas to 1.
	Mode Mode
	// Replicas is the consensus group size (default 3, as deployed in the
	// paper's evaluation).
	Replicas int

	// Lanes is the number of parallel execution lanes for DMT modes
	// (default 1 — the pre-lane single-token configuration). More than one
	// lane takes effect only for programs that declare a papi.ConflictMap
	// (Program.EffectiveLanes); connections are routed to lanes by the
	// program's ConnLane and each lane runs its own deterministic
	// round-robin schedule, merged deterministically at cross-lane
	// operations.
	Lanes int

	// Groups shards the socket-call log across this many independent
	// Paxos groups (default 1 — the single-log pipeline, bit for bit).
	// Connections are routed to groups by rendezvous hashing on the
	// connection id (overridable via papi.ConflictMap.ConnGroup); each
	// group runs its own proposer/acceptor state, WAL, and burst
	// submitter, so proposal throughput, fsync bandwidth, and
	// Accept-round pipelining scale with the group count. Committed
	// entries re-merge into one deterministic admission order through
	// per-group watermark vectors carried on time bubbles (seq.Groups),
	// so DMT admission stays globally deterministic. Forces Speculation
	// off when > 1: the speculator feeds bursts in admission order,
	// which the cross-group merge does not preserve.
	Groups int

	// Wtimeout is the empty-sequence duration after which the primary
	// requests a time bubble (default 100µs, §7). A gate waiting for
	// that moment never sleeps for less than hrtimer.Floor (20µs) at a
	// time, so Figure 16's 1µs and 10µs points re-arm its deadline at most
	// 50,000 times a second instead of once per microsecond.
	Wtimeout time.Duration
	// Nclock is the number of logical clocks per bubble (default 1000, §7).
	Nclock uint64

	// NetOptions configures the client-facing simulated network (latency
	// and jitter stagger request arrival across time — source S3 of §2.2).
	NetOptions simnet.Options
	// HubLatency/HubJitter/HubLoss configure the replica-to-replica
	// consensus fabric.
	HubLatency time.Duration
	HubJitter  time.Duration
	HubLoss    float64
	// Seed seeds the network fault models.
	Seed int64

	// HeartbeatInterval and ElectionTimeout tune failure detection
	// (paper defaults: 1s and 3s; simulations scale these down —
	// defaults here are 25ms and 100ms).
	HeartbeatInterval time.Duration
	ElectionTimeout   time.Duration

	// WALDir enables on-disk persistence of consensus decisions when
	// non-empty (one subdirectory per replica). Required for
	// RestartReplica (recovery by log replay).
	WALDir string

	// TCPConsensus runs replica-to-replica consensus over real loopback
	// TCP sockets (gob-framed) instead of the in-memory hub — the
	// deployment path for replicas on separate machines. Failure
	// injection (FailReplica) still works: the transport is closed.
	TCPConsensus bool

	// AnalyzeBackup attaches a REPFRAME-style lock-order analysis (§6.2)
	// to the last replica's DMT scheduler. Only meaningful in DMT modes.
	// Retrieve results with Cluster.Analysis.
	AnalyzeBackup bool

	// MetricsAddr enables each replica's HTTP scrape endpoint (/metrics,
	// /healthz, /trace, /debug/pprof) when non-empty. Replica i binds the
	// configured port plus i ("host:0" lets every replica pick a free
	// port; read it back with Replica.ObsAddr).
	MetricsAddr string
	// TraceCapacity bounds each replica's in-memory lifecycle-trace ring
	// (admit/proposed/committed/consumed/output span events). Zero
	// disables tracing.
	TraceCapacity int
	// WALSync enables fsync on consensus-decision appends (the paper's
	// deployment syncs to SSD). Off by default: simulation clusters favor
	// speed, and the fsync instruments only move when this is on.
	WALSync bool

	// NoFlightRecorder disables the always-on divergence flight recorder
	// (per-lane journals of scheduling decisions, consumption acts, and
	// merge stamps, chained by rolling hashes). On by default in DMT modes
	// because its hot path is a handful of arithmetic ops per already-
	// journaled event; the off switch exists for paired overhead
	// measurement (crane-bench) and last-resort triage.
	NoFlightRecorder bool
	// FlightCapacity bounds each lane journal's entry ring (default 4096).
	FlightCapacity int
	// AuditEvery sets how many consumed sequence positions elapse between
	// live-audit marks — the rolling journal hashes backups piggyback on
	// AcceptOK replies for the leader to cross-check (default 64).
	AuditEvery uint64

	// Speculation lets the primary execute admitted socket calls while
	// their Accept round is still in flight, holding every externally
	// visible effect until the commit confirms the speculated order —
	// and rolling back to the last checkpoint boundary on the rare
	// mismatch. Off by default; with it off the pipeline is bit-identical
	// to the pre-speculation code. Only meaningful under ModeCrane.
	Speculation bool
}

func (c *Config) setDefaults() {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Lanes < 1 {
		c.Lanes = 1
	}
	if c.Groups < 1 {
		c.Groups = 1
	}
	if !c.Mode.replicated() {
		c.Replicas = 1
		c.Groups = 1
	}
	if c.Groups > 1 {
		// The speculator consumes bursts in admission order; the
		// cross-group merge emits in stamp order, which only coincides
		// at one group. Sharded deployments trade speculation for
		// group-parallel ordering.
		c.Speculation = false
	}
	if c.Wtimeout <= 0 {
		c.Wtimeout = 100 * time.Microsecond
	}
	if c.Nclock == 0 {
		c.Nclock = 1000
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 25 * time.Millisecond
	}
	if c.ElectionTimeout <= 0 {
		// Generous relative to the heartbeat (the paper uses 3x at
		// seconds scale); at millisecond scale, scheduler noise on
		// loaded machines makes spurious elections expensive.
		c.ElectionTimeout = 8 * c.HeartbeatInterval
	}
}

// Cluster is a running replicated deployment of one server program.
type Cluster struct {
	cfg      Config
	prog     papi.Program
	net      *simnet.Network
	hub      *paxos.ChanHub
	tcpAddrs map[int]string // consensus addresses when TCPConsensus
	replicas []*Replica
	stopped  bool
}

// StartCluster deploys prog under the configured mode. The caller owns the
// returned cluster and must Stop it.
func StartCluster(cfg Config, prog papi.Program) (*Cluster, error) {
	cfg.setDefaults()
	if len(prog.Ports) == 0 {
		return nil, errors.New("crane: program declares no ports")
	}
	if prog.New == nil {
		return nil, errors.New("crane: program has no constructor")
	}
	c := &Cluster{
		cfg:  cfg,
		prog: prog,
		net:  simnet.New(cfg.NetOptions),
	}
	peers := make([]int, cfg.Replicas)
	for i := range peers {
		peers[i] = i
	}
	if cfg.Mode.replicated() && !cfg.TCPConsensus {
		c.hub = paxos.NewChanHub(cfg.HubLatency, cfg.HubJitter, cfg.HubLoss, cfg.Seed)
	}
	if cfg.Mode.replicated() && cfg.TCPConsensus {
		// Bind every replica's consensus listener first so the full
		// address table exists before any node starts.
		c.tcpAddrs = make(map[int]string, cfg.Replicas)
		transports := make([]*paxos.TCPTransport, cfg.Replicas)
		for i := 0; i < cfg.Replicas; i++ {
			tr, err := paxos.NewTCPTransport(i, map[int]string{i: "127.0.0.1:0"})
			if err != nil {
				c.Stop()
				return nil, err
			}
			transports[i] = tr
			c.tcpAddrs[i] = tr.Addr()
		}
		for i := 0; i < cfg.Replicas; i++ {
			transports[i].SetPeerAddrs(c.tcpAddrs)
		}
		for i := 0; i < cfg.Replicas; i++ {
			r := newReplica(i, &c.cfg, prog, c.net)
			r.transport = transports[i]
			if err := r.start(nil, peers); err != nil {
				c.Stop()
				return nil, err
			}
			c.replicas = append(c.replicas, r)
		}
		return c, nil
	}
	for i := 0; i < cfg.Replicas; i++ {
		r := newReplica(i, &c.cfg, prog, c.net)
		if err := r.start(c.hub, peers); err != nil {
			c.Stop()
			return nil, err
		}
		c.replicas = append(c.replicas, r)
	}
	return c, nil
}

// Net returns the client-facing network; clients dial into it.
func (c *Cluster) Net() *simnet.Network { return c.net }

// Replica returns replica i.
func (c *Cluster) Replica(i int) *Replica { return c.replicas[i] }

// Replicas returns the number of replicas.
func (c *Cluster) Replicas() int { return len(c.replicas) }

// Primary returns the current primary replica, waiting up to 5s for one to
// emerge; in un-replicated modes it returns the single instance.
func (c *Cluster) Primary() (*Replica, error) {
	if !c.cfg.Mode.replicated() {
		return c.replicas[0], nil
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, r := range c.replicas {
			if !r.killed() && r.IsPrimary() {
				return r, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return nil, errors.New("crane: no primary elected")
}

// Addr returns the dialing address for port on replica i.
func (c *Cluster) Addr(i, port int) simnet.Addr {
	return simnet.Addr(fmt.Sprintf("replica%d:%d", i, port))
}

// Dial connects a client to the current primary's proxy (or directly to
// the server in un-replicated modes), retrying across leader changes.
func (c *Cluster) Dial(client string, port int) (*simnet.Conn, error) {
	var lastErr error
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		p, err := c.Primary()
		if err != nil {
			return nil, err
		}
		conn, err := c.net.Dial(simnet.Addr(client), c.Addr(p.id, port))
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(time.Millisecond)
	}
	return nil, fmt.Errorf("crane: dial: %w", lastErr)
}

// OutputLogs returns every live replica's network-output log (§7.2).
func (c *Cluster) OutputLogs() []*trace.OutputLog {
	var out []*trace.OutputLog
	for _, r := range c.replicas {
		if !r.killed() {
			out = append(out, r.out)
		}
	}
	return out
}

// SeqStats returns the primary's Paxos-sequence counters (Table 1); in
// un-replicated modes the counters are zero.
func (c *Cluster) SeqStats() seq.Stats {
	p, err := c.Primary()
	if err != nil {
		return seq.Stats{}
	}
	return p.SeqStats()
}

// WaitOutputs blocks until every live replica has logged at least k
// outgoing socket calls, or the timeout elapses.
func (c *Cluster) WaitOutputs(k int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		for _, r := range c.replicas {
			if !r.killed() && r.out.Len() < k {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("crane: timeout waiting for %d outputs", k)
}

// WaitQuiescent blocks until every live replica has drained its sequence
// and closed all connections, or the timeout elapses.
func (c *Cluster) WaitQuiescent(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		for _, r := range c.replicas {
			if !r.killed() && !r.Quiescent() {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("crane: timeout waiting for quiescence")
}

// FailReplica simulates a machine failure of replica i: its network is
// cut and its processes are killed. State on "disk" (the WAL) survives.
func (c *Cluster) FailReplica(i int) {
	if c.hub != nil {
		c.hub.Disconnect(i)
	}
	c.replicas[i].stop()
}

// PartitionReplica cuts replica i off the consensus fabric without
// stopping it: it keeps running (and, if it believes itself primary, keeps
// admitting and speculating on client traffic — the client network is
// separate from the consensus hub) but can no longer reach a quorum.
// In-memory hub clusters only.
func (c *Cluster) PartitionReplica(i int) {
	if c.hub != nil {
		c.hub.Disconnect(i)
	}
}

// HealReplica reconnects a partitioned replica to the consensus fabric; it
// adopts the surviving majority's view and commits their entries.
func (c *Cluster) HealReplica(i int) {
	if c.hub != nil {
		c.hub.Reconnect(i)
	}
}

// FailPrimary fails the current primary and returns its id.
func (c *Cluster) FailPrimary() (int, error) {
	p, err := c.Primary()
	if err != nil {
		return -1, err
	}
	c.FailReplica(p.id)
	return p.id, nil
}

// CheckpointBackup takes a checkpoint on a backup replica (§5.2: "done
// every minute on one backup replica"; callers invoke it explicitly).
func (c *Cluster) CheckpointBackup(cp *checkpoint.Checkpointer) (*checkpoint.Checkpoint, *checkpoint.Timings, error) {
	p, err := c.Primary()
	if err != nil {
		return nil, nil, err
	}
	for _, r := range c.replicas {
		if r != p && !r.killed() {
			return r.Checkpoint(cp)
		}
	}
	return nil, nil, errors.New("crane: no live backup to checkpoint")
}

// RestoreReplica rebuilds a previously failed replica i from a shipped
// checkpoint: fresh container from the base image plus the checkpoint's
// fs patch, restored process state, and consensus catch-up from the
// checkpoint's global index (§5.2).
func (c *Cluster) RestoreReplica(i int, ck *checkpoint.Checkpoint) error {
	old := c.replicas[i]
	if !old.killed() {
		return fmt.Errorf("crane: replica %d still running", i)
	}
	r := newReplica(i, &c.cfg, c.prog, c.net)
	r.restoreState = ck.Process
	r.deliverFrom = ck.Index
	r.deliverFroms = ck.GroupIndexes
	r.restoreWatermarks = ck.GroupWatermarks
	// Hosts are stable, but the old listeners may still be bound if stop
	// raced; give the network a moment.
	peers := make([]int, c.cfg.Replicas)
	for j := range peers {
		peers[j] = j
	}
	if c.hub != nil {
		c.hub.Reconnect(i)
	}
	if err := r.start(c.hub, peers); err != nil {
		return err
	}
	// Apply the checkpointed filesystem patch over the fresh base image.
	if err := r.fs.Apply(&ck.FSPatch); err != nil {
		return err
	}
	c.replicas[i] = r
	return nil
}

// RestartReplica rebuilds a previously failed replica from its surviving
// on-disk WAL alone — the paper's "start a server replica from scratch and
// replay the entire sequence of socket calls" recovery path (§2.1), which
// checkpoints exist to shortcut. Requires Config.WALDir.
func (c *Cluster) RestartReplica(i int) error {
	if c.cfg.WALDir == "" {
		return errors.New("crane: RestartReplica requires Config.WALDir")
	}
	old := c.replicas[i]
	if !old.killed() {
		return fmt.Errorf("crane: replica %d still running", i)
	}
	r := newReplica(i, &c.cfg, c.prog, c.net)
	// Mark as a rejoining backup: adopt the running cluster's view. The
	// WAL's recovered entries re-deliver from index 0, replaying the full
	// socket-call sequence through the fresh server instance.
	r.rejoining = true
	peers := make([]int, c.cfg.Replicas)
	for j := range peers {
		peers[j] = j
	}
	if c.hub != nil {
		c.hub.Reconnect(i)
	}
	if err := r.start(c.hub, peers); err != nil {
		return err
	}
	c.replicas[i] = r
	return nil
}

// Analysis returns the backup lock-order checker (nil unless
// Config.AnalyzeBackup was set on a DMT-mode cluster).
func (c *Cluster) Analysis() *analysis.LockOrderChecker {
	for _, r := range c.replicas {
		if r.checker != nil {
			return r.checker
		}
	}
	return nil
}

// CompactTo compacts every live replica's consensus log below the given
// checkpoint index (call after CheckpointBackup succeeds; replicas lagging
// past the compaction point recover via RestoreReplica instead of
// catch-up). Single-group form: sharded deployments anchor per-group
// compaction through AnchorGC instead.
func (c *Cluster) CompactTo(idx uint64) {
	for _, r := range c.replicas {
		if !r.killed() && r.node != nil {
			r.node.CompactTo(idx)
		}
	}
}

// AnchorGC promises, on every live replica and for every Paxos group, that
// entries at or below the checkpoint's per-group index will never be
// replayed (the checkpoint supersedes them). Each group's primary computes
// the cluster-wide minimum of these promises, trims its log, lets the WAL
// drop whole segments below the floor (wal.CompactBefore), and announces
// the floor to backups on heartbeats — the Done/Min GC protocol. A replica
// that never promises (failed, partitioned) pins its groups' floors, so
// compaction never outruns a peer that still needs catch-up.
func (c *Cluster) AnchorGC(ck *checkpoint.Checkpoint) {
	for _, r := range c.replicas {
		if r.killed() {
			continue
		}
		for g, nd := range r.nodes {
			idx := ck.Index
			if g < len(ck.GroupIndexes) {
				idx = ck.GroupIndexes[g]
			}
			if idx > 0 {
				nd.SetDone(idx)
			}
		}
	}
}

// Stop tears the whole cluster down.
func (c *Cluster) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	for _, r := range c.replicas {
		r.stop()
	}
	if c.hub != nil {
		c.hub.Close()
	}
}

// DialAndRequest is a convenience for request/response clients: dial the
// primary, write req, read until the response reaches want bytes or the
// server closes, then close. It retries once across a leader change.
func (c *Cluster) DialAndRequest(client string, port int, req []byte, want int) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < 8; attempt++ {
		conn, err := c.Dial(client, port)
		if err != nil {
			return nil, err
		}
		//crane:specleak-ok client-harness write: this is the test client's request to the server, not a server output
		if _, err := conn.Write(req); err != nil {
			conn.Close()
			lastErr = err
			time.Sleep(2 * time.Millisecond)
			continue
		}
		resp := make([]byte, 0, want)
		buf := make([]byte, 4096)
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		for len(resp) < want {
			n, err := conn.Read(buf)
			resp = append(resp, buf[:n]...)
			if err != nil {
				if err == io.EOF {
					break
				}
				lastErr = err
				break
			}
		}
		conn.Close()
		if len(resp) > 0 {
			return resp, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, fmt.Errorf("crane: request failed: %w", lastErr)
}
