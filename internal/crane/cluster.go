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
	// (default 1). More than one lane takes effect only for programs that
	// declare a papi.ConflictMap (Program.EffectiveLanes). A connection
	// runs on lane papi.Program.ConnClass(conn, lanes); each lane runs its
	// own deterministic round-robin schedule, merged deterministically at
	// cross-lane operations.
	Lanes int

	// Groups is the number of independent Paxos groups the socket-call log
	// is ordered by (default 1). A connection's calls are ordered in group
	// papi.Program.ConnClass(conn, groups) — the same function that picks
	// its lane, so with Lanes == Groups group g orders what lane g runs.
	// Each group has its own proposer/acceptor state, WAL and burst
	// submitter, so proposal throughput, fsync bandwidth and Accept-round
	// pipelining scale with the group count. Committed entries merge into
	// one deterministic admission order through per-group watermark
	// vectors carried on time bubbles (seq.Groups); one group is the same
	// pipeline with nothing to wait for. More than one group needs the
	// time bubbles of ModeCrane and excludes Speculation (validate).
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
	// mismatch. Off by default. Only meaningful under ModeCrane, and only
	// with one Paxos group (validate).
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

// validate rejects the option pairs that cannot work together, by name,
// instead of quietly dropping one of them or starting a cluster that wedges.
// Call after setDefaults.
func (c *Config) validate() error {
	if c.Groups == 1 {
		return nil
	}
	if c.Speculation {
		// The speculator executes bursts in admission order; the cross-group
		// merge emits in stamp order, which only coincides at one group.
		return fmt.Errorf("crane: Speculation with Groups=%d: speculation needs the one-group admission order", c.Groups)
	}
	if c.Mode != ModeCrane {
		// The merge passes an idle group only when a time bubble advances
		// its watermark; without bubbles the first quiet group parks every
		// other group's entries for good.
		return fmt.Errorf("crane: Mode %s with Groups=%d: the cross-group merge needs time bubbles (ModeCrane)", c.Mode, c.Groups)
	}
	return nil
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
	if err := cfg.validate(); err != nil {
		return nil, err
	}
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
	var transports []*paxos.TCPTransport
	switch {
	case !cfg.Mode.replicated():
	case !cfg.TCPConsensus:
		c.hub = paxos.NewChanHub(cfg.HubLatency, cfg.HubJitter, cfg.HubLoss, cfg.Seed)
	default:
		// Bind every replica's consensus listener first so the full
		// address table exists before any node starts.
		c.tcpAddrs = make(map[int]string, cfg.Replicas)
		transports = make([]*paxos.TCPTransport, cfg.Replicas)
		for i := range transports {
			tr, err := paxos.NewTCPTransport(i, map[int]string{i: "127.0.0.1:0"})
			if err != nil {
				c.Stop()
				return nil, err
			}
			transports[i] = tr
			c.tcpAddrs[i] = tr.Addr()
		}
		for _, tr := range transports {
			tr.SetPeerAddrs(c.tcpAddrs)
		}
	}
	for i := 0; i < cfg.Replicas; i++ {
		r := newReplica(i, &c.cfg, prog, c.net)
		if transports != nil {
			r.transport = transports[i]
		}
		if err := r.start(c.hub); err != nil {
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
// fs patch, restored process state, and consensus catch-up of every group
// from the checkpoint's per-group index (§5.2).
func (c *Cluster) RestoreReplica(i int, ck *checkpoint.Checkpoint) error {
	old := c.replicas[i]
	if !old.killed() {
		return fmt.Errorf("crane: replica %d still running", i)
	}
	if len(ck.GroupIndexes) != c.cfg.Groups || len(ck.GroupWatermarks) != c.cfg.Groups {
		// A shipped checkpoint is outside input: one taken at another group
		// count would replay some group from slot 0 over restored state.
		return fmt.Errorf("crane: checkpoint carries %d group indexes and %d watermarks, deployment has %d groups",
			len(ck.GroupIndexes), len(ck.GroupWatermarks), c.cfg.Groups)
	}
	r := newReplica(i, &c.cfg, c.prog, c.net)
	r.restoreState = ck.Process
	r.deliverFroms = ck.GroupIndexes
	r.restoreWatermarks = ck.GroupWatermarks
	if err := c.rejoin(i, r); err != nil {
		return err
	}
	// Apply the checkpointed filesystem patch over the fresh base image.
	return r.fs.Apply(&ck.FSPatch)
}

// rejoin starts r, a rebuilt replica i, as a backup of the running cluster
// and puts it in the failed one's place.
func (c *Cluster) rejoin(i int, r *Replica) error {
	r.rejoining = true
	if c.hub != nil {
		c.hub.Reconnect(i)
	}
	if err := r.start(c.hub); err != nil {
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
	// The WAL's recovered entries re-deliver from index 0, replaying the
	// full socket-call sequence through the fresh server instance.
	return c.rejoin(i, newReplica(i, &c.cfg, c.prog, c.net))
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
			if g < len(ck.GroupIndexes) && ck.GroupIndexes[g] > 0 {
				nd.SetDone(ck.GroupIndexes[g])
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
