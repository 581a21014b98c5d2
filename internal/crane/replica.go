package crane

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"crane/internal/cfs"
	"crane/internal/checkpoint"
	"crane/internal/obs"
	"crane/internal/obs/flight"
	"crane/internal/papi"
	"crane/internal/paxos"
	"crane/internal/seq"
	"crane/internal/simnet"
	"crane/internal/trace"
	"crane/internal/wal"
)

// Mode selects the execution configuration (the bars of Figure 14 plus the
// §7.2 plan II diagnostic mode).
type Mode int

// Execution modes.
const (
	// ModeNondet is the un-replicated nondeterministic baseline.
	ModeNondet Mode = iota
	// ModeParrotOnly runs the DMT scheduler without replication
	// (Figure 14's "w/ Parrot only").
	ModeParrotOnly
	// ModePaxosOnly replicates socket inputs via consensus but runs
	// threads nondeterministically (Figure 14's "w/ Paxos only").
	ModePaxosOnly
	// ModeCraneNoBubble is full CRANE with the time bubbling component
	// disabled — the paper's §7.2 plan II, which demonstrably diverges.
	ModeCraneNoBubble
	// ModeCrane is the full system.
	ModeCrane
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNondet:
		return "nondet"
	case ModeParrotOnly:
		return "parrot-only"
	case ModePaxosOnly:
		return "paxos-only"
	case ModeCraneNoBubble:
		return "crane-nobubble"
	case ModeCrane:
		return "crane"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// replicated reports whether the mode runs a consensus group.
func (m Mode) replicated() bool {
	return m == ModePaxosOnly || m == ModeCraneNoBubble || m == ModeCrane
}

// deterministic reports whether the mode runs the DMT scheduler.
func (m Mode) deterministic() bool {
	return m == ModeParrotOnly || m == ModeCraneNoBubble || m == ModeCrane
}

// Replica is one CRANE instance: proxy + consensus + DMT + time bubbling +
// checkpointing around a transparently replicated server program (Fig. 1).
type Replica struct {
	id   int
	host string
	cfg  *Config
	prog papi.Program
	net  *simnet.Network
	mode Mode

	// nodes and stores hold one consensus node and one WAL per Paxos
	// group (Config.Groups of them; empty in un-replicated modes, and
	// stores also without Config.WALDir). A connection's socket calls are
	// ordered in the group of its class (groupForConn), so proposal, fsync
	// and Accept-pipelining bandwidth multiply by the group count.
	nodes  []*paxos.Node //crane:pergroup
	stores []*wal.Log    //crane:pergroup
	groups int
	// gm merges the groups' committed streams into one deterministic
	// admission order using per-group watermark vectors carried on time
	// bubbles; with one group it emits each delivery as it arrives. Its
	// emit callback is afterMerge, run under gm's lock: the one
	// single-threaded continuation of every group's delivery goroutine.
	gm *seq.Groups
	// stampCtr issues the shared admission-order stamps the merge sorts
	// by; the per-group burst submitters assign them just before
	// proposing, so each group's committed stamps are monotone.
	stampCtr atomic.Uint64
	// sqs holds one Paxos sequence per execution lane. Committed entries
	// are routed by lanesOf: a call to its connection's lane, a bubble
	// into every lane, keeping each lane's clock bubble-paced.
	sqs []*seq.Sequence
	// inbound[L] is what lane L's consumer filed off sqs[L] for the socket
	// wrappers: listener backlogs and receive buffers.
	inbound []*inbound
	lanes   int
	px      *proxy
	pump    *pumpSockets

	// pproc is the DMT process (nil in non-DMT modes), nproc the
	// nondeterministic one; both are set once in start.
	pproc *papi.ParrotProc
	nproc *papi.NondetProc
	inst  papi.Instance
	// spec executes bursts ahead of commit (nil unless Config.Speculation
	// under full CRANE with consensus).
	spec *speculator

	fs       *cfs.FS
	baseSnap *cfs.Snapshot
	out      *trace.OutputLog

	// openConns counts connections from the filing of their CONNECT until
	// the server closes them or reads them to EOF.
	openConns  atomic.Int64
	killedFlag atomic.Bool
	// stopped closes when stop's teardown is complete.
	stopped chan struct{}

	bubblePending atomic.Bool
	bubbleSince   atomic.Int64 // unix nanos of the outstanding request
	alignAt       atomic.Int64 // unix nanos gating the next alignment round

	restoreState []byte
	// deliverFroms and restoreWatermarks come from the checkpoint a
	// restored replica starts from (nil otherwise): each group catches up
	// from its own checkpointed index, and the merge resumes from the
	// checkpointed watermark vector so post-restore stamp bumps replay
	// identically.
	deliverFroms      []uint64 //crane:pergroup
	restoreWatermarks []uint64
	// rejoining marks a rebuilt replica (RestoreReplica, RestartReplica):
	// it adopts the running cluster's view instead of claiming the
	// bootstrap primaryship.
	rejoining bool
	// entArenas are the per-group decode arenas: group g's delivery
	// goroutine owns entArenas[g] exclusively. cloneArena backs the
	// bubble clones made in enqueueDelivered, which runs under gm's lock.
	entArenas  [][]seq.Entry //crane:pergroup
	cloneArena []seq.Entry
	// ro is the replica's observability state: instrument registry,
	// lifecycle tracer, and (opt-in) HTTP scrape endpoint.
	ro *replicaObs
	// flt is the always-on flight recorder journaling the replica's
	// determinism-relevant event stream (nil in non-DMT modes; every call
	// site is nil-safe).
	flt *flight.Recorder
	// aud cross-checks backups' piggybacked journal marks (leader side of
	// the live audit; nil without a recorder or consensus).
	aud *auditor
	// auditCur tracks which marks this replica already piggybacked.
	auditCur flight.AuditCursor
	// mangleDeliverA is a test-only hook that intercepts committed entries
	// before lane enqueue, used to seed a deliberate divergence on one
	// replica. Atomic because tests install it while the delivery loop may
	// be running.
	mangleDeliverA atomic.Pointer[func(*seq.Entry) []*seq.Entry]
}

// newReplica wires a replica; start() launches it.
func newReplica(id int, cfg *Config, prog papi.Program, net *simnet.Network) *Replica {
	r := &Replica{
		id:      id,
		host:    fmt.Sprintf("replica%d", id),
		cfg:     cfg,
		prog:    prog,
		net:     net,
		mode:    cfg.Mode,
		out:     trace.NewOutputLog(fmt.Sprintf("replica%d", id)),
		stopped: make(chan struct{}),
	}
	r.lanes = 1
	if cfg.Mode.deterministic() {
		r.lanes = prog.EffectiveLanes(cfg.Lanes)
	}
	r.groups = cfg.Groups // setDefaults: at least 1, and 1 when un-replicated
	r.entArenas = make([][]seq.Entry, r.groups)
	r.gm = seq.NewGroups(r.groups, r.afterMerge)
	r.sqs = make([]*seq.Sequence, r.lanes)
	r.inbound = make([]*inbound, r.lanes)
	for i := range r.sqs {
		r.sqs[i] = seq.New()
		r.inbound[i] = newInbound()
	}
	r.ro = newReplicaObs(r)
	if cfg.Mode.deterministic() {
		r.flt = flight.New(r.host, r.lanes, flight.Options{})
		if cfg.Mode.replicated() {
			r.aud = newAuditor(r)
		}
	}
	return r
}

// laneForConn and groupForConn are the deployment's one partition function
// (Program.ConnClass) read at the lane count and at the group count: the
// lane that executes a connection and the Paxos group that orders it. The
// group is chosen on the primary before ordering; every replica re-derives
// both from the replica-consistent connection id.
func (r *Replica) laneForConn(conn uint64) int { return r.prog.ConnClass(conn, r.lanes) }

func (r *Replica) groupForConn(conn uint64) int { return r.prog.ConnClass(conn, r.groups) }

// groupOf attributes a committed-stream entry to a group for trace spans.
// Bubbles are proposed per group but consumed as lane-cloned clock grants,
// so they report group 0.
func (r *Replica) groupOf(e *seq.Entry) int {
	if e.Kind == seq.KindBubble {
		return 0
	}
	return r.groupForConn(e.Conn)
}

// groupReg returns the instrument registry view for group g. One of the two
// places that look at the group count, because instrument names are an
// external format: a one-group deployment keeps the plain names
// (paxos_commits_total, wal_fsyncs_total) that dashboards and the benchmark's
// frozen list read; more groups rename per group (paxos_groupN_*,
// wal_groupN_*).
func (r *Replica) groupReg(g int) *obs.Registry {
	if r.groups == 1 {
		return r.ro.reg
	}
	return r.ro.reg.Grouped(g)
}

// walDir returns the directory of group g's log. The other place that looks
// at the group count, because the on-disk layout is an external format: a
// one-group deployment keeps WALDir/host, so logs written before sharding
// restart unchanged and tools open them by that path; more groups get
// WALDir/host/gN each.
func (r *Replica) walDir(g int) string {
	dir := filepath.Join(r.cfg.WALDir, r.host)
	if r.groups == 1 {
		return dir
	}
	return filepath.Join(dir, fmt.Sprintf("g%d", g))
}

// start builds the filesystem, program instance, consensus node, proxy and
// process, and launches the server.
func (r *Replica) start(hub *paxos.ChanHub) error {
	// Container filesystem: install, then snapshot the pristine image
	// (the LXC snapshot "prepared before any server starts", §5.2).
	r.fs = cfs.New()
	if r.prog.Install != nil {
		r.prog.Install(r.fs)
	}
	r.baseSnap = r.fs.Snapshot()
	r.inst = r.prog.New(r.fs)
	if r.restoreState != nil {
		if err := r.inst.Restore(r.restoreState); err != nil {
			return fmt.Errorf("crane: restore state: %w", err)
		}
	}

	// Lane 0's sequence carries the seq_* instruments; every lane's
	// consumption hook tags spans with its lane id.
	r.sqs[0].SetObs(r.ro.reg)
	for i, lsq := range r.sqs {
		lane := i
		lsq.SetConsumedHook(func(e *seq.Entry) {
			r.ro.recordConsumed(e, r.logicalClock(), lane, r.groupOf(e))
		})
	}

	if r.mode.replicated() {
		if r.cfg.WALDir != "" {
			// One log per group: each group's appends and fsyncs proceed
			// independently.
			for g := 0; g < r.groups; g++ {
				store, err := wal.Open(r.walDir(g),
					wal.Options{NoSync: !r.cfg.WALSync, Obs: r.groupReg(g)})
				if err != nil {
					return err
				}
				r.stores = append(r.stores, store)
			}
		}
		initialPrimary := 0
		if r.rejoining {
			// A rebuilt replica re-joins as a backup: it must adopt the
			// running cluster's view rather than claim the bootstrap
			// primaryship (§7.6's self-downgrading).
			initialPrimary = -1
		}
		transport := hub.Endpoint(r.id)
		// The wire is shared across groups, so transport counters are
		// never renamed per group.
		registerTransportStats(r.ro.reg, transport.Stats)
		peers := make([]int, r.cfg.Replicas)
		for i := range peers {
			peers[i] = i
		}
		mux := paxos.NewGroupMux(transport)
		for g := 0; g < r.groups; g++ {
			g := g
			var deliverFrom uint64
			if r.deliverFroms != nil {
				deliverFrom = r.deliverFroms[g]
			}
			pcfg := paxos.Config{
				ID:                r.id,
				Peers:             peers,
				Transport:         mux.Port(g),
				HeartbeatInterval: r.cfg.HeartbeatInterval,
				ElectionTimeout:   r.cfg.ElectionTimeout,
				DeliverFrom:       deliverFrom,
				OnDeliver:         func(e paxos.LogEntry) { r.onDeliverGroup(g, e) },
				InitialPrimary:    initialPrimary,
				Obs:               r.groupReg(g),
			}
			if r.stores != nil {
				// Set only with a WAL: a nil *wal.Log in the Store
				// interface would not compare equal to nil.
				pcfg.Store = r.stores[g]
			}
			if r.flt != nil {
				if g == 0 {
					// The live audit piggybacks journal marks on one
					// group's AcceptOK stream; the marks cover the whole
					// replica (lane journals span groups), so riding one
					// group suffices and avoids duplicate samples.
					pcfg.AuditSource = func() []flight.AuditSample {
						return r.flt.CollectAudit(&r.auditCur)
					}
					if r.aud != nil {
						pcfg.OnAudit = r.aud.onAudit
					}
				}
				detail := fmt.Sprintf("group%d", g)
				pcfg.OnViewChange = func(view uint64, primary int) {
					r.flt.Control().Note(flight.EvViewChange, r.logicalClock(),
						view, uint64(primary), detail)
				}
			}
			node, err := paxos.NewNode(pcfg)
			if err != nil {
				return err
			}
			r.nodes = append(r.nodes, node)
		}
		// A restored replica resumes the merge from the checkpointed
		// watermark vector: post-restore stamp bumps (eff = max(stamp, W+1))
		// must replay exactly as the live replicas computed them. (A vector
		// of the wrong length, or none, leaves the merge at zero.)
		r.gm.SetWatermarks(r.restoreWatermarks)
	}

	switch r.mode {
	case ModeNondet:
		r.nproc = papi.NewNondetProc(r.net, r.host, r.fs)
		r.nproc.SetLanes(r.prog.EffectiveLanes(r.cfg.Lanes))
	case ModeParrotOnly:
		r.pproc = papi.NewParrotProc(r.net, r.host, r.fs)
		r.pproc.SetLanes(r.lanes)
		r.wireFlight()
	case ModePaxosOnly:
		r.nproc = papi.NewNondetProc(r.net, r.host, r.fs)
		r.nproc.SetLanes(r.prog.EffectiveLanes(r.cfg.Lanes))
		r.pump = newPumpSockets(r)
		r.nproc.SetSocketLayer(r.pump)
	case ModeCrane, ModeCraneNoBubble:
		r.pproc = papi.NewParrotProc(r.net, r.host, r.fs)
		r.pproc.SetLanes(r.lanes)
		r.wireFlight()
		r.pproc.SetSocketLayer(&dmtSockets{r: r})
		r.pproc.Sched.SetGate(newGate(r, r.mode == ModeCrane))
		if r.cfg.Speculation && r.mode == ModeCrane {
			r.spec = newSpeculator(r)
		}
	}
	if r.pproc != nil {
		r.pproc.Sched.SetObs(r.ro.reg)
	}

	if r.mode.replicated() {
		for _, nd := range r.nodes {
			nd.Start()
		}
		r.px = newProxy(r)
		if err := r.px.start(); err != nil {
			return err
		}
	}
	if r.pproc != nil {
		r.pproc.Start(r.inst)
	} else {
		r.nproc.Start(r.inst)
	}
	if r.cfg.MetricsAddr != "" {
		addr, err := metricsAddrFor(r.cfg.MetricsAddr, r.id)
		if err != nil {
			return err
		}
		if err := r.ro.serve(addr, r.health, r.flt); err != nil {
			return err
		}
	}
	return nil
}

// wireFlight attaches the flight recorder's lane journals to the DMT
// scheduler and Paxos sequences. Called before the scheduler starts: each
// lane's scheduler and sequence share that lane's journal, whose
// single-writer discipline the lane token provides.
func (r *Replica) wireFlight() {
	if r.flt == nil {
		return
	}
	for i := 0; i < r.lanes; i++ {
		ls := r.pproc.Sched.LaneSched(i)
		ls.SetFlight(r.flt.Lane(i))
		r.sqs[i].SetFlight(r.flt.Lane(i), ls.ClockFast)
	}
}

// logicalClock reads the DMT scheduler's logical clock (0 in non-DMT
// modes). Lock-free, so it is safe from callbacks holding other locks.
func (r *Replica) logicalClock() uint64 {
	if r.pproc != nil {
		return r.pproc.Sched.ClockFast()
	}
	return 0
}

// health snapshots the /healthz payload, one row per Paxos group.
func (r *Replica) health() obs.Health {
	pending := r.gm.Pending()
	for _, lsq := range r.sqs {
		pending += lsq.Len()
	}
	h := obs.Health{
		Replica:    r.id,
		Mode:       r.mode.String(),
		OpenConns:  r.openConns.Load(),
		SeqPending: pending,
	}
	hasWAL := r.stores != nil
	for g, nd := range r.nodes {
		view, viewPrimary := nd.View()
		var tail uint64
		if hasWAL {
			tail, _ = r.stores[g].Tail()
		}
		h.AddGroup(nd.IsPrimary(), view, viewPrimary, nd.CommitIndex(), hasWAL, tail)
	}
	return h
}

// onDeliverGroup receives group g's committed consensus decisions in that
// group's order (§3.2). Entries are carved from the group's chunked arena:
// each group's deliveries arrive one at a time from its Paxos node's event
// loop (never concurrently within a group), so the delivery path costs one
// allocation per arena chunk instead of one per entry. Every entry passes
// through the watermark merge, which emits it to afterMerge in the
// replica-agreed stamp order (at once, with one group).
func (r *Replica) onDeliverGroup(g int, e paxos.LogEntry) {
	if len(r.entArenas[g]) == 0 {
		r.entArenas[g] = make([]seq.Entry, 64)
	}
	ent := &r.entArenas[g][0]
	r.entArenas[g] = r.entArenas[g][1:]
	if err := seq.DecodeInto(ent, e.Payload); err != nil {
		return
	}
	ent.Index = e.Index
	r.ro.recordCommitted(ent, g)
	// Journal the (group, slot) of every commit so crane-inspect can
	// localize a divergence to the group whose stream first differed.
	r.flt.Control().Emit(flight.EvGroupCommit, r.logicalClock(),
		0, uint64(g), e.Index)
	r.gm.Deliver(g, ent)
}

// afterMerge consumes one entry in the replica's global admission order. It
// is the merge's emit callback, run under gm's lock, which gives the
// speculator and the lane routing the single-threaded discipline they assume.
func (r *Replica) afterMerge(ent *seq.Entry) {
	if r.spec != nil && r.spec.onCommitted(ent) {
		// The commit confirmed a speculative clone already in a lane queue
		// (or was swallowed by a fail-stopped replica); it must not be
		// enqueued a second time.
		if ent.Kind == seq.KindBubble {
			r.bubblePending.Store(false)
			// The bubble was enqueued when it was fed, so its commit
			// enqueues nothing; a token holder sleeping out the request's
			// grace must still learn that it may ask again.
			for _, lsq := range r.sqs {
				lsq.Nudge()
			}
		}
		return
	}
	if h := r.mangleDeliverA.Load(); h != nil {
		// Test-only divergence seeding: the hook decides which entries to
		// enqueue now (possibly reordered, possibly none while it holds one
		// back).
		for _, m := range (*h)(ent) {
			r.enqueueDelivered(m)
		}
		return
	}
	r.enqueueDelivered(ent)
}

// lanesOf is the one lane-routing rule for sequence entries: it returns
// the lanes [lo, hi) whose sequences ent goes to. A call goes to its
// connection's lane. A bubble goes to every lane: bubbles pace each lane's
// logical clock, and keep a starved lane's merge stamp advancing, which the
// cross-lane merge relies on. Each of a bubble's lanes needs its own copy,
// because TickBubble mutates NClock in place.
func (r *Replica) lanesOf(ent *seq.Entry) (lo, hi int) {
	if ent.Kind == seq.KindBubble {
		return 0, r.lanes
	}
	lane := r.laneForConn(ent.Conn)
	return lane, lane + 1
}

// enqueueDelivered routes one committed entry into the lane sequences —
// the tail of onDeliver, split out so the divergence-seeding hook can
// reorder entries while reusing the exact production routing. The last of
// the entry's lanes takes ent itself, the others a copy.
func (r *Replica) enqueueDelivered(ent *seq.Entry) {
	lo, hi := r.lanesOf(ent)
	for lane := lo; lane < hi-1; lane++ {
		if len(r.cloneArena) == 0 {
			r.cloneArena = make([]seq.Entry, 64)
		}
		clone := &r.cloneArena[0]
		r.cloneArena = r.cloneArena[1:]
		*clone = *ent
		r.sqs[lane].Enqueue(clone)
	}
	r.sqs[hi-1].Enqueue(ent)
	if ent.Kind == seq.KindBubble {
		r.bubblePending.Store(false)
	}
	if r.pump != nil {
		r.pump.wake()
	}
}

// bubbleGrace is how long an outstanding bubble request is trusted before it
// is presumed lost (a view change can drop it) and re-issued.
const bubbleGrace = 50 * time.Millisecond

// maybeRequestBubble implements the proxy side of Fig. 13: when the DMT
// has been starved of input for W_timeout, the primary invokes consensus
// on a time-bubble insertion (backups drop the request). It returns how long
// the caller, a token holder waiting on an empty sequence, may sleep before
// calling again could do anything new.
func (r *Replica) maybeRequestBubble() time.Duration {
	// A bubble is due when any lane's sequence has starved for W_timeout
	// (with one lane this is exactly the pre-lane condition): starved
	// lanes need bubbles to tick their clocks even while other lanes have
	// steady client input. Until then the caller sleeps for what is left of
	// W_timeout on the lane nearest starvation, not for a fresh one: the
	// count started at the drain. While another lane works, a parked lane's
	// starvation does not count (see spareParked); if that leaves nothing
	// starved, the caller looks again within a W_timeout.
	left := r.cfg.Wtimeout
	spare := r.spareParked()
	for i, lsq := range r.sqs {
		if spare && r.pproc.Sched.LaneSched(i).Parked() {
			continue
		}
		left = min(left, lsq.StarvesIn(r.cfg.Wtimeout))
	}
	if left > 0 {
		return left
	}
	// A replica that leads nothing cannot propose; all it has to notice is
	// becoming a leader, which the Paxos node itself only does on its
	// quarter-heartbeat tick. Waking at W_timeout here would have every
	// backup's token holders polling at 10 kHz through a whole outage.
	idle := r.cfg.HeartbeatInterval / 4
	// Per-group primaryship: after a failover the groups can transiently
	// elect different leaders (alignGroupLeadership pulls them back onto
	// the group-0 leader, but not atomically). Whoever leads a group paces
	// that group's clock — the merge is live only if every group keeps
	// committing bubbles, so each round proposes one bubble into every
	// group this replica currently leads (bubbleRound).
	leads := false
	for _, nd := range r.nodes {
		if nd.IsPrimary() {
			leads = true
			break
		}
	}
	if !leads {
		return idle
	}
	r.alignGroupLeadership()
	if r.bubblePending.Load() {
		// An outstanding request can be lost across a view change;
		// re-arm after a generous grace period. Its commit wakes the
		// waiter through the sequence, so until then there is nothing to
		// poll for.
		if left := bubbleGrace - time.Duration(time.Now().UnixNano()-r.bubbleSince.Load()); left > 0 {
			return left
		}
		r.bubblePending.Store(false)
	}
	if !r.bubblePending.CompareAndSwap(false, true) {
		return bubbleGrace // another lane's token holder is asking right now
	}
	// Bubbles ride the proxy's burst submitters so a bubble terminates
	// the burst it lands in (§4: no socket call queued behind the bubble
	// is packaged after it).
	proposed := false
	for g, e := range r.bubbleRound() {
		if e != nil && r.px.submit(e, g) {
			proposed = true
		}
	}
	if !proposed {
		r.bubblePending.Store(false)
		return idle
	}
	r.ro.bubbleReqs.Inc()
	return bubbleGrace
}

// spareParked reports whether a parked lane's starvation is no reason for a
// bubble round: some lane is working and no cross-lane operation waits for its
// merge turn. A parked lane runs only its idle thread, which reads no clock,
// and a merge wait is the one thing that needs its consumption position to
// move; the working lane asks for itself once its own sequence starves.
// Counting the parked lane would run a round every W_timeout plus one commit
// for as long as any lane is busy. When every lane is parked, each lane's starvation counts as before (a
// parked cluster keeps its idle cadence: ROADMAP item 8). Parked is physical
// timing, like every bubble request; the committed bubbles are what replicas
// agree on.
func (r *Replica) spareParked() bool {
	if r.lanes == 1 || r.pproc == nil {
		return false
	}
	d := r.pproc.Sched
	for i := 0; i < r.lanes; i++ {
		if !d.LaneSched(i).Parked() {
			return !d.CrossPending()
		}
	}
	return false
}

// bubbleRound opens a bubble round and mints its bubbles: one for every group
// this replica leads, indexed by group, nil where another replica leads. The
// caller hands them to the groups' burst submitters — a starvation round
// queues each like a socket call, a burst that carries its own bubble appends
// its group's and queues the rest — and clears bubblePending if none went out.
// Otherwise the first bubble to reach the lane sequences clears it
// (enqueueDelivered), or maybeRequestBubble's grace period if a view change
// swallowed the round: until then the gate does not ask for another.
//
// One bubble goes into EVERY led group: the merge can only emit past a group
// whose watermark has advanced, so an idle group with no bubble flow would
// stall delivery for all of them. A bubble has a request id (its commit is
// traceable) but no admit record — nothing ever "consumes" a bubble via the
// client-call hook, so an admit-time entry for one would leak.
func (r *Replica) bubbleRound() []*seq.Entry {
	r.bubblePending.Store(true)
	r.bubbleSince.Store(time.Now().UnixNano())
	// One bubble is cloned into every lane (afterMerge), so the
	// replica-wide clock grant of a single bubble round is
	// NClock x lanes x groups. Dividing the per-bubble grant by
	// lanes x groups keeps the grant per round constant as either axis
	// scales; a starved lane simply requests bubbles more often. (The
	// split was introduced to bound the idle thread's chew cost, one
	// token turn per clock; a parked lane now drains a bubble in one
	// turn, and the split stays only because changing it would move
	// clock values.) The divided value rides the committed entries, so
	// replicas agree by construction.
	nclock := r.cfg.Nclock / uint64(r.lanes*r.groups)
	if nclock == 0 {
		nclock = 1
	}
	round := make([]*seq.Entry, r.groups)
	for g, nd := range r.nodes {
		if nd.IsPrimary() {
			round[g] = &seq.Entry{Kind: seq.KindBubble, NClock: nclock, Req: r.ro.assignReq(r.id)}
		}
	}
	return round
}

// alignGroupLeadership pulls every Paxos group's leadership onto this
// replica once it leads group 0. Group elections are independent, and
// after a failover they can settle on different replicas for good — the
// proxy accepts clients wherever group 0 leads, so a connection hashed to
// a group led elsewhere would be refused forever. Group 0's election is
// the tie-break: its leader campaigns in every group it does not lead,
// rate-limited to one round per backoff window so an election in flight
// is not trampled. Leadership placement never touches the committed
// order, so alignment is determinism-neutral.
func (r *Replica) alignGroupLeadership() {
	if !r.IsPrimary() {
		return
	}
	aligned := true
	for _, nd := range r.nodes[1:] {
		if !nd.IsPrimary() {
			aligned = false
			break
		}
	}
	if aligned {
		return
	}
	window := 2 * r.cfg.ElectionTimeout
	if window <= 0 {
		window = 100 * time.Millisecond
	}
	now := time.Now().UnixNano()
	next := r.alignAt.Load()
	if now < next || !r.alignAt.CompareAndSwap(next, now+int64(window)) {
		return // a round is pending, or another caller won the CAS
	}
	for _, nd := range r.nodes[1:] {
		if !nd.IsPrimary() {
			nd.Campaign()
		}
	}
}

// emitOutput logs an outgoing socket call and, on the primary, forwards it
// to the client; backups log and drop (§2.1). With speculation enabled the
// speculator sees every output first: it buffers those produced inside an
// open window and drops those of a fail-stopped replica.
func (r *Replica) emitOutput(conn uint64, data []byte) {
	if r.spec != nil && r.spec.emit(conn, data) {
		return
	}
	r.out.Record(conn, data) //crane:specleak-ok the speculator declined the output above: no window is open, the effect is committed
	r.ro.recordOutput(conn, r.logicalClock(), r.laneForConn(conn), r.groupForConn(conn))
	if r.px != nil && r.IsPrimary() {
		r.px.forward(conn, data)
	}
}

func (r *Replica) proxyCloseConn(conn uint64) {
	if r.spec != nil && r.spec.closeConn(conn) {
		return
	}
	if r.px != nil {
		r.px.closeConn(conn)
	}
}

func (r *Replica) killed() bool { return r.killedFlag.Load() }

// stop tears the replica down: server process, proxy, consensus node. A
// second caller waits until the first caller's teardown is complete (a
// speculation fail-stop runs it on its own goroutine).
func (r *Replica) stop() {
	if !r.killedFlag.CompareAndSwap(false, true) {
		<-r.stopped
		return
	}
	defer close(r.stopped)
	if r.pump != nil {
		r.pump.wake()
	}
	if r.pproc != nil {
		r.pproc.Kill()
	}
	if r.nproc != nil {
		r.nproc.Kill()
	}
	if r.px != nil {
		r.px.close()
	}
	for _, nd := range r.nodes {
		nd.Stop()
	}
	if r.pproc != nil {
		r.pproc.Wait()
	}
	if r.nproc != nil {
		r.nproc.Wait()
	}
	for _, store := range r.stores {
		store.Close() //crane:fsyncerr-ok shutdown path; every append already synced, so a close failure loses nothing durable
	}
	r.ro.close()
}

// --- checkpoint.Process implementation (§5.2) ---

// Quiescent reports whether the server has no alive client connections and
// no pending input in any lane — the paper's trick for avoiding TCP-stack
// checkpoints.
func (r *Replica) Quiescent() bool {
	if r.openConns.Load() != 0 {
		return false
	}
	for _, lsq := range r.sqs {
		if !lsq.Empty() {
			return false
		}
	}
	if r.gm.PendingClientCalls() > 0 {
		// Client entries parked in the cross-group merge are admitted input
		// the program has not yet seen — checkpointing under them would
		// lose them on restore. Parked BUBBLES are fine: in steady state
		// the newest bubble round's tail is almost always parked behind an
		// as-yet-empty group, and a bubble is pure clock padding the idle
		// thread consumes invisibly. (Checkpoint() separately insists on a
		// fully drained merge so its watermark capture is exact.)
		return false
	}
	if r.spec != nil && r.spec.active() {
		// An open speculation window or a fail-stop means execution state
		// is provisional — never a checkpointable moment.
		return false
	}
	return true
}

// Snapshot serializes the program's in-memory state (CRIU substitution).
func (r *Replica) Snapshot() ([]byte, error) { return r.inst.Snapshot() }

// Restore reinstates a program snapshot (used on a freshly built replica
// before its main thread runs).
func (r *Replica) Restore(b []byte) error { return r.inst.Restore(b) }

// Checkpoint captures a consistent (state, index) image using the
// quiescence-gated checkpointer, re-validating that no input raced the
// capture.
func (r *Replica) Checkpoint(cp *checkpoint.Checkpointer) (*checkpoint.Checkpoint, *checkpoint.Timings, error) {
	for attempt := 0; attempt < 10; attempt++ {
		idxsBefore := r.commitIndexes()
		ck, tm, err := cp.Capture(r, r.fs, r.baseSnap, func() uint64 { return idxsBefore[0] })
		if err != nil {
			return nil, tm, err
		}
		if r.commitIndexesStill(idxsBefore) && r.Quiescent() && r.gm.Pending() == 0 {
			// The capture must land in a fully drained merge window
			// (between bubble rounds): a parked bubble would advance the
			// live replicas' watermarks after the capture while the
			// restored replica never replays it (its slot is below the
			// checkpointed commit index), skewing effective stamps across
			// replicas. The commit-index re-validation guarantees nothing
			// was delivered during the capture, so a drained merge now
			// means a drained merge throughout.
			ck.GroupIndexes = idxsBefore
			ck.GroupWatermarks = r.gm.Watermarks()
			return ck, tm, nil
		}
		// Input raced the capture; back off and retry (§5.2).
		time.Sleep(2 * time.Millisecond)
	}
	return nil, nil, fmt.Errorf("crane: checkpoint never stabilized")
}

// commitIndexes snapshots every group's consensus commit index.
func (r *Replica) commitIndexes() []uint64 {
	idxs := make([]uint64, len(r.nodes))
	for g, nd := range r.nodes {
		idxs[g] = nd.CommitIndex()
	}
	return idxs
}

// commitIndexesStill reports whether no group committed past the snapshot
// taken before the capture (the §5.2 race re-validation, per group).
func (r *Replica) commitIndexesStill(idxs []uint64) bool {
	for g, nd := range r.nodes {
		if nd.CommitIndex() != idxs[g] {
			return false
		}
	}
	return true
}

// Accessors used by the cluster, tests, and benches.

// ID returns the replica id.
func (r *Replica) ID() int { return r.id }

// Host returns the replica's network host name.
func (r *Replica) Host() string { return r.host }

// IsPrimary reports whether this replica leads Paxos group 0, which is
// where the proxy takes its cue to accept clients (see LeadsAllGroups).
func (r *Replica) IsPrimary() bool { return len(r.nodes) > 0 && r.nodes[0].IsPrimary() }

// Outputs returns the replica's network-output log (§7.2).
func (r *Replica) Outputs() *trace.OutputLog { return r.out }

// SeqStats returns the Paxos-sequence counters (Table 1), summed over
// lanes in multi-lane deployments (bubble counters multiply by the lane
// count, since bubbles are cloned into every lane).
func (r *Replica) SeqStats() seq.Stats {
	agg := r.sqs[0].Stats()
	for _, lsq := range r.sqs[1:] {
		st := lsq.Stats()
		agg.Enqueued += st.Enqueued
		agg.Bubbles += st.Bubbles
		agg.ClientCalls += st.ClientCalls
		agg.BubbleClocks += st.BubbleClocks
		agg.Consumed += st.Consumed
		agg.Pending += st.Pending
		agg.PayloadBytes += st.PayloadBytes
	}
	return agg
}

// GroupNode exposes group g's consensus node (nil when out of range or
// un-replicated).
func (r *Replica) GroupNode(g int) *paxos.Node {
	if g < 0 || g >= len(r.nodes) {
		return nil
	}
	return r.nodes[g]
}

// Groups returns the Paxos group count.
func (r *Replica) Groups() int { return r.groups }

// LeadsAllGroups reports whether this replica is the consensus primary of
// every Paxos group. Group elections are independent: after a failover the
// proxy starts accepting clients as soon as group 0 re-elects, while a call
// routed to a group still mid-election is refused. Failover tests (and
// health probes) poll this for the fully re-elected state before resuming
// load.
func (r *Replica) LeadsAllGroups() bool {
	if len(r.nodes) == 0 {
		return false
	}
	for _, nd := range r.nodes {
		if !nd.IsPrimary() {
			return false
		}
	}
	return true
}

// GroupStats returns the cross-group merge counters.
func (r *Replica) GroupStats() seq.GroupStats { return r.gm.Stats() }

// FS returns the replica's container filesystem.
func (r *Replica) FS() *cfs.FS { return r.fs }

// SpecStats returns the speculation counters (all zero when speculation
// is disabled).
func (r *Replica) SpecStats() SpecStats {
	if r.spec == nil {
		return SpecStats{}
	}
	return r.spec.stats()
}

// BaseSnapshot returns the pristine container image.
func (r *Replica) BaseSnapshot() *cfs.Snapshot { return r.baseSnap }

// OpenConns returns the number of alive server-side connections.
func (r *Replica) OpenConns() int64 { return r.openConns.Load() }

// Obs returns the replica's instrument registry.
func (r *Replica) Obs() *obs.Registry { return r.ro.reg }

// Tracer returns the replica's lifecycle tracer (nil unless
// Config.TraceCapacity > 0).
func (r *Replica) Tracer() *obs.Tracer { return r.ro.tracer }

// FlightRecorder returns the replica's divergence flight recorder (nil in
// non-DMT modes).
func (r *Replica) FlightRecorder() *flight.Recorder { return r.flt }

// DivergenceAlarms returns the live audit's detected divergences (nil when
// none — the expected steady state — or when the replica runs no auditor).
func (r *Replica) DivergenceAlarms() []DivergenceAlarm { return r.aud.Alarms() }

// AuditChecked returns how many cross-replica audit samples this replica
// has verified as the consensus leader.
func (r *Replica) AuditChecked() uint64 { return r.aud.checkedCount() }

// SetMangleDeliver installs a test-only hook that intercepts committed
// entries before lane enqueue: the hook returns the entries to enqueue now
// (possibly reordered, possibly none while it holds one back). Tests use
// it to seed a deliberate divergence on one replica; nil uninstalls.
func (r *Replica) SetMangleDeliver(h func(*seq.Entry) []*seq.Entry) {
	if h == nil {
		r.mangleDeliverA.Store(nil)
		return
	}
	r.mangleDeliverA.Store(&h)
}

// ObsAddr returns the bound scrape-endpoint address ("" when
// Config.MetricsAddr was empty).
func (r *Replica) ObsAddr() string {
	if r.ro.srv == nil {
		return ""
	}
	return r.ro.srv.Addr()
}

var _ checkpoint.Process = (*Replica)(nil)
