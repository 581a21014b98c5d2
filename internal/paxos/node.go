// Package paxos implements the consensus component of §5.1: a viewstamped
// Paxos in the style of Mazieres' "Paxos made practical" [52], the protocol
// the paper reimplements atop libevent. In the normal case only the primary
// invokes consensus (one Accept round per request). Failure handling uses
// heartbeats (primary → backups every second by default) and, after three
// missed seconds, the paper's three-step leader election:
//
//  1. a backup proposes a new view (a standard two-phase consensus),
//  2. the proposer that wins the view proposes itself as primary candidate
//     (another two-phase consensus),
//  3. the new leader announces itself as the new primary.
//
// Every decided value carries a global, monotonically increasing index (the
// viewstamp) that also keys checkpoints (§5.2), and is persisted to the WAL
// (the Berkeley-DB stand-in) at commit time.
package paxos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"crane/internal/obs"
	"crane/internal/obs/flight"
	"crane/internal/wal"
)

// MsgType enumerates protocol messages.
type MsgType uint8

// Protocol message types.
const (
	MsgAccept         MsgType = iota + 1 // primary → backups: accept entry
	MsgAcceptOK                          // backup → primary: entry accepted
	MsgCommit                            // primary → backups: commit index advanced
	MsgHeartbeat                         // primary → backups: liveness + commit index
	MsgProposeView                       // candidate → all: election step 1 phase a
	MsgPromiseView                       // responder → candidate: step 1 phase b
	MsgProposePrimary                    // candidate → all: election step 2 phase a
	MsgAckPrimary                        // responder → candidate: step 2 phase b
	MsgNewPrimary                        // new primary → all: election step 3
	MsgRequestEntries                    // lagging node → primary: catch-up request
	MsgEntries                           // primary → lagging node: catch-up reply
)

// String implements fmt.Stringer.
func (m MsgType) String() string {
	names := [...]string{"", "Accept", "AcceptOK", "Commit", "Heartbeat",
		"ProposeView", "PromiseView", "ProposePrimary", "AckPrimary",
		"NewPrimary", "RequestEntries", "Entries"}
	if int(m) < len(names) {
		return names[m]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(m))
}

// LogEntry is one slot of the replicated log.
type LogEntry struct {
	Index   uint64
	View    uint64
	Payload []byte
}

// Message is the single wire format (field union keyed by Type).
type Message struct {
	Type      MsgType
	From      int
	View      uint64
	Index     uint64
	CommitIdx uint64
	LastNorm  uint64 // last view in which the sender was in Normal status
	Entries   []LogEntry
	Primary   int
	// Group routes the message to one consensus group when several share a
	// transport endpoint (GroupMux). Nodes never read it; the mux stamps it
	// on send and dispatches on receive. Always 0 in single-group clusters.
	Group int
	// Done piggybacks GC watermarks (the Min/Done protocol of the 6.824
	// paxos lab): on AcceptOK it is the sender's own done index — the
	// highest global index whose entries the sender no longer needs — and
	// on Heartbeat/Commit it is the primary's cluster-wide minimum, which
	// backups apply as their compaction floor. 0 means "no watermark yet"
	// and never triggers GC.
	Done uint64
	// Audit piggybacks the sender's latest flight-recorder audit samples
	// (per-lane rolling journal hashes) on AcceptOK replies so the primary
	// can cross-check replicas without extra messages.
	Audit []flight.AuditSample
}

// Status is a node's protocol status.
type Status uint8

// Node statuses.
const (
	StatusNormal Status = iota
	StatusViewChange
)

// Config configures a Node.
type Config struct {
	// ID is this node's identity; Peers lists all node ids including ID.
	ID    int
	Peers []int
	// Transport carries messages; Store persists committed decisions.
	Transport Transport
	Store     *wal.Log
	// HeartbeatInterval defaults to 1s (paper); ElectionTimeout to 3x the
	// heartbeat (paper: 3s). Tests scale these down.
	HeartbeatInterval time.Duration
	ElectionTimeout   time.Duration
	// OnDeliver receives committed entries in index order.
	OnDeliver func(LogEntry)
	// OnViewChange is called when the node enters Normal status in a new
	// view (including the initial view).
	OnViewChange func(view uint64, primary int)
	// DeliverFrom suppresses re-delivery of WAL-recovered entries with
	// index <= DeliverFrom (a restored replica replays those from its
	// checkpoint instead).
	DeliverFrom uint64
	// Bootstrap designates node 0 as the initial primary of view 0 when
	// true (all replicas must agree on the initial configuration, as in
	// any SMR deployment).
	InitialPrimary int
	// MaxBatch caps how many queued proposals are coalesced into one
	// multi-entry Accept round (default 64).
	MaxBatch int
	// MaxBatchBytes caps the payload bytes per Accept round (default
	// 256 KiB). A single oversized payload still ships alone.
	MaxBatchBytes int
	// MaxInflight is the Accept-round pipeline window: how many batches
	// may await majority acknowledgment at once (default 4). 1 restores
	// strict one-round-at-a-time ordering latency.
	MaxInflight int
	// Obs registers consensus instruments (proposals, commits, batch
	// sizes, propose-to-commit latency, view gauges). nil disables all
	// instrumentation at zero cost.
	Obs *obs.Registry
	// AuditSource, when set, supplies fresh flight-recorder audit samples
	// to piggyback on outgoing AcceptOK replies (nil return = nothing new).
	AuditSource func() []flight.AuditSample
	// OnAudit receives audit samples piggybacked on messages from peers.
	// Called from the event loop; implementations must not block.
	OnAudit func(from int, samples []flight.AuditSample)
}

// Batching defaults.
const (
	DefaultMaxBatch      = 64
	DefaultMaxBatchBytes = 256 << 10
	DefaultMaxInflight   = 4
)

// commitLatSampleMask selects which Accept rounds get commit-latency
// timing: rounds where roundSeq&mask == 0, i.e. 1 in 8.
const commitLatSampleMask = 7

// ErrNotPrimary is returned by Propose on a non-primary node.
var ErrNotPrimary = errors.New("paxos: not primary")

// ErrStopped is returned by Propose after Stop.
var ErrStopped = errors.New("paxos: stopped")

type event struct {
	msg      *Message
	batch    [][]byte
	reply    chan error
	done     uint64 // SetDone watermark
	setDone  bool
	tick     bool
	stop     bool
	campaign bool
}

// Node is one consensus replica.
type Node struct {
	cfg Config

	events chan event
	done   chan struct{}
	// exited is closed when the event loop returns; Stop waits on it so a
	// caller may release what the loop writes to (the WAL) right after.
	exited chan struct{}

	// All fields below are owned by the event loop goroutine.
	status     Status
	view       uint64
	primary    int
	lastNorm   uint64 // last view in which status was Normal
	promised   uint64 // highest view promised in elections
	log        []LogEntry
	base       uint64 // index of log[0] minus 1 (0 when log starts at 1)
	commitIdx  uint64
	acks       map[uint64]map[int]bool
	lastHB     time.Time
	pending    [][]byte      // queued proposals not yet in an Accept round
	inflight   []uint64      // last index of each unacknowledged Accept round
	electDelay time.Duration // randomized election timeout
	electRng   *rand.Rand    // re-randomizes the timeout per retry

	// Min/Done GC state (6.824 paxos lab style). doneIdx is this node's own
	// done watermark (SetDone); peerDone the watermarks peers piggybacked on
	// AcceptOK; gcFloor the highest compaction floor applied so far. All
	// default 0, so nodes that never call SetDone never GC — full-replay
	// recovery (RestartReplica) is unaffected until a caller opts in.
	doneIdx  uint64
	peerDone map[int]uint64
	gcFloor  uint64

	// instruments (nil instruments discard observations, so a node built
	// without Config.Obs pays only a nil check per event)
	obsProposals    *obs.Counter
	obsCommits      *obs.Counter
	obsBatchEntries *obs.Histogram       // entries per Accept round
	obsCommitLat    *obs.Histogram       // sendBatch -> round fully committed
	roundStart      map[uint64]time.Time // last index of sampled round -> send time
	roundSeq        uint64               // rounds sent; selects sampled rounds

	// election state (candidate side)
	electing       bool
	electPhase     int // 1 = ProposeView sent, 2 = ProposePrimary sent
	candView       uint64
	promises       map[int]*Message
	primaryAcks    map[int]bool
	mergedLog      []LogEntry
	mergedCommit   uint64
	electionStart  time.Time
	lastElectionMs float64

	// mirrors for lock-free-ish external reads
	mu         sync.Mutex
	extView    uint64
	extPrim    int
	extStatus  Status
	extCommit  uint64
	extGCFloor uint64
	viewCount  uint64
	started    bool
	stopped    bool
}

// NewNode creates a node; call Start to run it.
func NewNode(cfg Config) (*Node, error) {
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.ElectionTimeout == 0 {
		cfg.ElectionTimeout = 3 * cfg.HeartbeatInterval
	}
	if cfg.Transport == nil {
		return nil, errors.New("paxos: nil transport")
	}
	if len(cfg.Peers) == 0 {
		return nil, errors.New("paxos: no peers")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = DefaultMaxBatchBytes
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	n := &Node{
		cfg:      cfg,
		events:   make(chan event, 4096),
		done:     make(chan struct{}),
		exited:   make(chan struct{}),
		primary:  cfg.InitialPrimary,
		acks:     make(map[uint64]map[int]bool),
		peerDone: make(map[int]uint64),
		lastHB:   time.Now(), //crane:detflow-ok heartbeat timer, below the consensus boundary
	}
	if cfg.Obs != nil {
		n.obsProposals = cfg.Obs.Counter("paxos_proposals_total",
			"payloads accepted for consensus ordering by this node")
		n.obsCommits = cfg.Obs.Counter("paxos_commits_total",
			"entries committed (persisted and delivered) by this node")
		n.obsBatchEntries = cfg.Obs.ValueHistogram("paxos_batch_entries",
			"entries coalesced per Accept round")
		n.obsCommitLat = cfg.Obs.Histogram("paxos_commit_seconds",
			"Accept-round broadcast to quorum commit")
		n.roundStart = make(map[uint64]time.Time)
		cfg.Obs.GaugeFunc("paxos_view", "current view number", func() float64 {
			v, _ := n.View()
			return float64(v)
		})
		cfg.Obs.GaugeFunc("paxos_commit_index", "highest committed global index", func() float64 {
			return float64(n.CommitIndex())
		})
		cfg.Obs.GaugeFunc("paxos_view_changes_total", "Normal views entered", func() float64 {
			return float64(n.ViewChanges())
		})
	}
	// Randomize the election timeout per node to break candidate ties;
	// re-randomized on every retry so near-identical draws cannot keep
	// two candidates colliding round after round.
	n.electRng = rand.New(rand.NewSource(int64(cfg.ID)*7919 + 42)) //crane:detflow-ok election jitter is intentionally per-replica; consensus agrees on the outcome
	n.electDelay = cfg.ElectionTimeout +
		time.Duration(n.electRng.Int63n(int64(cfg.ElectionTimeout)+1))
	if err := n.recover(); err != nil {
		return nil, err
	}
	// Until the loop runs, readers see the configured primary, not the zero
	// values: a rejoining node 0 would otherwise report itself primary.
	n.publish()
	return n, nil
}

// recover rebuilds committed state from the WAL.
func (n *Node) recover() error {
	if n.cfg.Store == nil {
		return nil
	}
	first, ok := n.cfg.Store.First()
	if !ok {
		return nil
	}
	n.base = first - 1
	err := n.cfg.Store.Scan(first, ^uint64(0), func(r wal.Record) bool {
		n.log = append(n.log, LogEntry{Index: r.Index, View: r.View, Payload: r.Payload})
		n.commitIdx = r.Index
		if r.View > n.lastNorm {
			n.lastNorm = r.View
			n.view = r.View
		}
		return true
	})
	return err
}

// Start launches the event loop and begins heartbeating/elections.
func (n *Node) Start() {
	n.cfg.Transport.SetHandler(func(msg Message) {
		select {
		case n.events <- event{msg: &msg}:
		case <-n.done:
		}
	})
	n.mu.Lock()
	n.started = true
	n.mu.Unlock()
	go n.loop()
}

// Stop terminates the event loop and returns once it has exited: no commit
// is in flight afterwards, so the caller may close the WAL. Every call
// waits, not only the first. Must not be called from an OnDeliver,
// OnViewChange or OnAudit callback (they run on the loop).
func (n *Node) Stop() {
	n.mu.Lock()
	started := n.started
	if !n.stopped {
		n.stopped = true
		close(n.done)
	}
	n.mu.Unlock()
	if started {
		<-n.exited
	}
}

// Propose submits a payload for consensus. Only the primary accepts
// proposals; commitment is reported asynchronously through OnDeliver.
func (n *Node) Propose(payload []byte) error {
	return n.ProposeBatch([][]byte{payload})
}

// ProposeBatch submits a burst of payloads for consensus in submission
// order — the proposal primitive. The batcher coalesces queued payloads
// (across concurrent callers, up to MaxBatch/MaxBatchBytes) into
// multi-entry Accept rounds and keeps up to MaxInflight rounds in flight,
// so the per-round broadcast and the backup-side fsync are amortized over
// the burst. A nil error means the payloads were accepted for ordering;
// commitment is reported asynchronously through OnDeliver, and (as with
// any uncommitted proposal) a view change may still discard them.
func (n *Node) ProposeBatch(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	if !n.IsPrimary() {
		return ErrNotPrimary
	}
	ev := event{batch: payloads, reply: make(chan error, 1)}
	select {
	case n.events <- ev:
	case <-n.done:
		return ErrStopped
	}
	select {
	case err := <-ev.reply:
		return err
	case <-n.done:
		return ErrStopped
	}
}

// IsPrimary reports whether this node believes it is the primary of the
// current view and is in Normal status.
func (n *Node) IsPrimary() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.extPrim == n.cfg.ID && n.extStatus == StatusNormal
}

// View returns the current view number and primary id.
func (n *Node) View() (uint64, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.extView, n.extPrim
}

// CommitIndex returns the highest committed global index.
func (n *Node) CommitIndex() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.extCommit
}

// Campaign asks the node to start an election for the next view now
// instead of waiting out a heartbeat timeout. Sharded deployments use it
// for leadership alignment: independent per-group elections can settle on
// different replicas after a failover, and the designated replica pulls
// the remaining groups onto itself so one proxy can serve every
// connection. A node that already leads ignores the call; the view-change
// log merge makes a takeover from a live leader safe (committed entries
// survive via the promise quorum).
func (n *Node) Campaign() {
	select {
	case n.events <- event{campaign: true}:
	case <-n.done:
	}
}

// ViewChanges returns how many times this node entered a new Normal view.
func (n *Node) ViewChanges() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.viewCount
}

// LastElectionMillis returns the duration of the last election this node
// won, in milliseconds (0 if it never won one). Benches §7.6 use it.
func (n *Node) LastElectionMillis() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastElectionMs
}

// handleCompact discards in-memory log entries with index <= idx and
// compacts the WAL below them (the GC floor, applyGCFloor). Only committed
// prefixes are compacted.
func (n *Node) handleCompact(idx uint64) {
	if idx > n.commitIdx {
		idx = n.commitIdx
	}
	if idx <= n.base {
		return
	}
	n.log = append([]LogEntry(nil), n.log[idx-n.base:]...)
	n.base = idx
	if n.cfg.Store != nil {
		n.cfg.Store.CompactBefore(idx + 1) //crane:fsyncerr-ok compaction is best-effort GC: failure retains extra segments but loses no committed entry
	}
}

// SetDone advances this node's done watermark: a promise that it no longer
// needs entries with index <= idx (it holds a checkpoint anchored at or
// above idx, §5.2). The watermark piggybacks on AcceptOK replies; when the
// primary sees every peer's watermark it compacts to the cluster minimum
// and announces that floor on heartbeats, where backups apply it. GC never
// runs below any replica's promise, and a node that never calls SetDone
// pins the whole cluster at full retention. Fire-and-forget.
func (n *Node) SetDone(idx uint64) {
	select {
	case n.events <- event{done: idx, setDone: true}:
	case <-n.done:
	}
}

// GCFloor returns the highest compaction floor this node has applied via
// the Done/Min protocol (0 until the cluster minimum first advances).
func (n *Node) GCFloor() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.extGCFloor
}

// handleDone raises the local done watermark and, on the primary, re-checks
// the cluster minimum.
func (n *Node) handleDone(idx uint64) {
	if idx <= n.doneIdx {
		return
	}
	n.doneIdx = idx
	n.maybeGC()
}

// clusterMinDone returns the minimum done watermark across this node and
// every peer (0 while any peer has yet to report).
func (n *Node) clusterMinDone() uint64 {
	min := n.doneIdx
	for _, p := range n.cfg.Peers {
		if p == n.cfg.ID {
			continue
		}
		if d := n.peerDone[p]; d < min {
			min = d
		}
	}
	return min
}

// maybeGC compacts to the cluster minimum done watermark. Only the primary
// computes the minimum (it is the only node that sees every peer's
// AcceptOK); backups compact at the floor the primary announces on
// Heartbeat/Commit messages.
func (n *Node) maybeGC() {
	if n.status != StatusNormal || n.primary != n.cfg.ID {
		return
	}
	if min := n.clusterMinDone(); min > n.gcFloor {
		n.applyGCFloor(min)
	}
}

// applyGCFloor trims log and WAL below floor on any node.
func (n *Node) applyGCFloor(floor uint64) {
	if floor <= n.gcFloor {
		return
	}
	n.gcFloor = floor
	n.handleCompact(floor)
}

func (n *Node) publish() {
	n.mu.Lock()
	n.extView = n.view
	n.extPrim = n.primary
	n.extStatus = n.status
	n.extCommit = n.commitIdx
	n.extGCFloor = n.gcFloor
	n.mu.Unlock()
}

func (n *Node) loop() {
	defer close(n.exited)
	tick := n.cfg.HeartbeatInterval / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	n.publish()
	if n.cfg.OnViewChange != nil && n.status == StatusNormal {
		n.cfg.OnViewChange(n.view, n.primary)
	}
	// Deliver WAL-recovered entries beyond DeliverFrom.
	for _, e := range n.log {
		if e.Index <= n.commitIdx && e.Index > n.cfg.DeliverFrom && n.cfg.OnDeliver != nil {
			n.cfg.OnDeliver(e)
		}
	}
	for {
		//crane:detflow-ok event-loop arm order is below consensus; decided order is what replicas see
		select {
		case <-n.done:
			n.cfg.Transport.Close()
			return
		case ev := <-n.events:
			switch {
			case ev.msg != nil:
				n.handle(*ev.msg)
			case ev.setDone:
				n.handleDone(ev.done)
			case ev.campaign:
				if n.status != StatusNormal || n.primary != n.cfg.ID {
					n.startElection()
					// Hold the timer-driven retry off for a full backoff
					// window so it cannot trample this election.
					n.lastHB = time.Now() //crane:detflow-ok election timer, below the consensus boundary
				}
			case ev.batch != nil || ev.reply != nil:
				n.handlePropose(ev)
			}
		case <-ticker.C:
			n.handleTick()
		}
		n.publish()
	}
}

func (n *Node) majority() int { return len(n.cfg.Peers)/2 + 1 }

func (n *Node) broadcast(msg Message) {
	msg.From = n.cfg.ID
	for _, p := range n.cfg.Peers {
		if p != n.cfg.ID {
			n.cfg.Transport.Send(p, msg)
		}
	}
}

// broadcastAccept sends one Accept round for ents, a contiguous run of
// log entries, in the current view.
func (n *Node) broadcastAccept(ents []LogEntry) {
	n.broadcast(Message{Type: MsgAccept, View: n.view, Index: ents[0].Index,
		Entries: ents, CommitIdx: n.commitIdx})
}

func (n *Node) send(to int, msg Message) {
	msg.From = n.cfg.ID
	n.cfg.Transport.Send(to, msg)
}

func (n *Node) lastLogIndex() uint64 { return n.base + uint64(len(n.log)) }

func (n *Node) entryAt(idx uint64) *LogEntry {
	if idx <= n.base || idx > n.lastLogIndex() {
		return nil
	}
	return &n.log[idx-n.base-1]
}

func (n *Node) handlePropose(ev event) {
	if n.status != StatusNormal || n.primary != n.cfg.ID {
		ev.reply <- ErrNotPrimary
		return
	}
	n.pending = append(n.pending, ev.batch...)
	n.obsProposals.Add(uint64(len(ev.batch)))
	ev.reply <- nil
	n.maybeSendBatches()
}

// maybeSendBatches drains queued proposals into multi-entry Accept rounds
// while the pipeline window has room. Called whenever proposals arrive or
// the commit index advances (freeing a window slot).
func (n *Node) maybeSendBatches() {
	if n.status != StatusNormal || n.primary != n.cfg.ID {
		return
	}
	for len(n.pending) > 0 && len(n.inflight) < n.cfg.MaxInflight {
		n.sendBatch()
	}
}

// sendBatch moves one batch from the pending queue into the log and
// broadcasts it as a single Accept round.
func (n *Node) sendBatch() {
	count, bytes := 0, 0
	for count < len(n.pending) && count < n.cfg.MaxBatch {
		if count > 0 && bytes+len(n.pending[count]) > n.cfg.MaxBatchBytes {
			break
		}
		bytes += len(n.pending[count])
		count++
	}
	first := n.lastLogIndex() + 1
	ents := make([]LogEntry, count)
	for i := 0; i < count; i++ {
		e := LogEntry{Index: first + uint64(i), View: n.view, Payload: n.pending[i]}
		n.log = append(n.log, e)
		n.acks[e.Index] = map[int]bool{n.cfg.ID: true}
		ents[i] = e
	}
	n.pending = n.pending[count:]
	if len(n.pending) == 0 {
		n.pending = nil // release the drained backing array
	}
	n.inflight = append(n.inflight, first+uint64(count)-1)
	n.obsBatchEntries.ObserveValue(uint64(count))
	if n.roundStart != nil {
		// Commit latency is sampled, not exhaustively timed: stamping every
		// round costs two clock reads plus map churn on the event loop — the
		// dominant instrumentation cost on the propose-commit hot path —
		// while 1-in-8 rounds keeps the histogram representative.
		if n.roundSeq&commitLatSampleMask == 0 {
			n.roundStart[first+uint64(count)-1] = time.Now()
		}
		n.roundSeq++
	}
	n.broadcastAccept(ents)
	// Single-replica degenerate case: self-ack is already a majority.
	n.tryAdvanceCommit()
}

// resetBatcher discards proposal state that cannot survive a view
// transition: in-flight rounds die with the view, and queued payloads are
// dropped like any uncommitted proposal.
func (n *Node) resetBatcher() {
	n.pending = nil
	n.inflight = nil
	if n.roundStart != nil {
		n.roundStart = make(map[uint64]time.Time)
	}
}

func (n *Node) handleTick() {
	now := time.Now() //crane:detflow-ok tick clock drives timers below the consensus boundary
	if n.status == StatusNormal && n.primary == n.cfg.ID {
		// Safety net: refill the pipeline window in case a freeing commit
		// arrived without triggering a send (e.g. after a view change).
		n.maybeSendBatches()
		// The heartbeat carries the log tail so backups that lost
		// Accepts (e.g. to transport overflow under load) detect the
		// gap and catch up even when no newer Accept arrives.
		n.broadcast(Message{Type: MsgHeartbeat, View: n.view,
			CommitIdx: n.commitIdx, Index: n.lastLogIndex(),
			Done: n.gcFloor})
		return
	}
	// Backup or mid-election: check for primary silence.
	if now.Sub(n.lastHB) >= n.electDelay {
		n.startElection()
		n.lastHB = now // back off before retrying
		n.electDelay = n.cfg.ElectionTimeout +
			time.Duration(n.electRng.Int63n(int64(n.cfg.ElectionTimeout)+1))
	}
}

func (n *Node) startElection() {
	next := n.view + 1
	if n.promised >= next {
		next = n.promised + 1
	}
	if n.electing && n.candView >= next {
		next = n.candView + 1
	}
	n.electing = true
	n.electPhase = 1
	n.candView = next
	n.status = StatusViewChange
	n.resetBatcher()
	n.promises = map[int]*Message{}
	n.primaryAcks = map[int]bool{}
	n.electionStart = time.Now() //crane:detflow-ok election timer, below the consensus boundary
	// Self-promise.
	n.promised = next
	n.promises[n.cfg.ID] = &Message{
		From: n.cfg.ID, View: next, CommitIdx: n.commitIdx,
		LastNorm: n.lastNorm, Entries: n.entriesAbove(n.commitIdx),
	}
	n.broadcast(Message{Type: MsgProposeView, View: next, CommitIdx: n.commitIdx})
	n.maybeWinPhase1()
}

func (n *Node) entriesAbove(idx uint64) []LogEntry {
	var out []LogEntry
	for i := idx + 1; i <= n.lastLogIndex(); i++ {
		out = append(out, *n.entryAt(i))
	}
	return out
}

func (n *Node) handle(msg Message) {
	switch msg.Type {
	case MsgAccept:
		n.onAccept(msg)
	case MsgAcceptOK:
		n.onAcceptOK(msg)
	case MsgCommit, MsgHeartbeat:
		n.onHeartbeat(msg)
	case MsgProposeView:
		n.onProposeView(msg)
	case MsgPromiseView:
		n.onPromiseView(msg)
	case MsgProposePrimary:
		n.onProposePrimary(msg)
	case MsgAckPrimary:
		n.onAckPrimary(msg)
	case MsgNewPrimary:
		n.onNewPrimary(msg)
	case MsgRequestEntries:
		n.onRequestEntries(msg)
	case MsgEntries:
		n.onEntries(msg)
	}
}

func (n *Node) onAccept(msg Message) {
	if msg.View < n.view || n.status != StatusNormal {
		return
	}
	if msg.View > n.view {
		// We missed a view change; ask the sender for state.
		n.send(msg.From, Message{Type: MsgRequestEntries, Index: n.lastLogIndex() + 1})
		return
	}
	n.lastHB = time.Now() //crane:detflow-ok heartbeat timer, below the consensus boundary
	// Append the entries that extend our log and answer with one
	// cumulative AcceptOK covering the whole round. Within a view the
	// primary's appends are sequential, so an OK at index i acknowledges
	// every entry at or below i.
	if msg.Entries[0].Index > n.lastLogIndex()+1 {
		// Gap ahead of the batch: request catch-up.
		n.send(msg.From, Message{Type: MsgRequestEntries, Index: n.lastLogIndex() + 1})
		return
	}
	for _, e := range msg.Entries {
		if e.Index == n.lastLogIndex()+1 {
			n.log = append(n.log, e)
		}
		// Entries at or below lastLogIndex are duplicates; the cumulative
		// OK below re-acks them idempotently.
	}
	last := msg.Entries[len(msg.Entries)-1].Index
	if lli := n.lastLogIndex(); last > lli {
		last = lli
	}
	n.sendAcceptOK(msg.From, last)
	n.applyCommit(msg.CommitIdx)
}

// sendAcceptOK replies with an AcceptOK, piggybacking any fresh
// flight-recorder audit samples for the primary to cross-check.
func (n *Node) sendAcceptOK(to int, idx uint64) {
	m := Message{Type: MsgAcceptOK, View: n.view, Index: idx, Done: n.doneIdx}
	if n.cfg.AuditSource != nil {
		m.Audit = n.cfg.AuditSource()
	}
	n.send(to, m)
}

func (n *Node) onAcceptOK(msg Message) {
	if n.cfg.OnAudit != nil && len(msg.Audit) > 0 {
		n.cfg.OnAudit(msg.From, msg.Audit)
	}
	if msg.Done > n.peerDone[msg.From] {
		n.peerDone[msg.From] = msg.Done
		n.maybeGC()
	}
	if msg.View != n.view || n.primary != n.cfg.ID || n.status != StatusNormal {
		return
	}
	if msg.Index <= n.commitIdx {
		return
	}
	// Cumulative acknowledgment: within a view the backup's log is appended
	// sequentially from the primary, so an OK at msg.Index covers every
	// uncommitted index at or below it.
	last := msg.Index
	if lli := n.lastLogIndex(); last > lli {
		last = lli
	}
	for i := n.commitIdx + 1; i <= last; i++ {
		m := n.acks[i]
		if m == nil {
			m = map[int]bool{n.cfg.ID: true}
			n.acks[i] = m
		}
		m[msg.From] = true
	}
	n.tryAdvanceCommit()
}

func (n *Node) tryAdvanceCommit() {
	target := n.commitIdx
	for {
		next := target + 1
		if next > n.lastLogIndex() {
			break
		}
		if len(n.acks[next]) < n.majority() {
			break
		}
		target = next
	}
	if target == n.commitIdx {
		return
	}
	for i := n.commitIdx + 1; i <= target; i++ {
		delete(n.acks, i)
	}
	n.commitThrough(target)
	n.broadcast(Message{Type: MsgCommit, View: n.view, CommitIdx: n.commitIdx,
		Done: n.gcFloor})
	// Retire acknowledged pipeline rounds and refill the window.
	for len(n.inflight) > 0 && n.inflight[0] <= n.commitIdx {
		if len(n.roundStart) != 0 { // skip the hash when no round is sampled
			if t0, ok := n.roundStart[n.inflight[0]]; ok {
				n.obsCommitLat.Since(t0)
				delete(n.roundStart, n.inflight[0])
			}
		}
		n.inflight = n.inflight[1:]
	}
	if len(n.inflight) == 0 {
		n.inflight = nil
	}
	n.maybeSendBatches()
}

// commitThrough persists and delivers entries (commitIdx, target] — the
// group-commit point: the whole range is appended to the WAL as one batch
// (one buffered write + one fsync), then delivered in index order.
func (n *Node) commitThrough(target uint64) {
	if lli := n.lastLogIndex(); target > lli {
		target = lli
	}
	if target <= n.commitIdx {
		return
	}
	first := n.commitIdx + 1
	if n.cfg.Store != nil {
		recs := make([]wal.Record, 0, target-n.commitIdx)
		for i := first; i <= target; i++ {
			e := n.entryAt(i)
			recs = append(recs, wal.Record{Index: e.Index, View: e.View, Payload: e.Payload})
		}
		if err := n.cfg.Store.AppendBatch(recs); err != nil {
			// A persistence failure is fatal for a real deployment; in
			// this reproduction we surface it loudly.
			panic(fmt.Sprintf("paxos: wal append: %v", err))
		}
	}
	for i := first; i <= target; i++ {
		e := n.entryAt(i)
		n.commitIdx = i
		if n.cfg.OnDeliver != nil && i > n.cfg.DeliverFrom {
			n.cfg.OnDeliver(*e)
		}
	}
	n.obsCommits.Add(target - first + 1)
}

// applyCommit advances the commit index toward target using local entries.
func (n *Node) applyCommit(target uint64) {
	n.commitThrough(target)
	if n.commitIdx < target {
		// Missing committed entries: catch up from the primary.
		n.send(n.primary, Message{Type: MsgRequestEntries, Index: n.lastLogIndex() + 1})
	}
}

func (n *Node) onHeartbeat(msg Message) {
	if msg.View < n.view {
		// A stale primary pinging us; if we are its successor's follower,
		// ignore. If *we* are primary of a newer view, re-announce so the
		// old primary downgrades (§7.6's self-downgrading).
		if n.primary == n.cfg.ID && n.status == StatusNormal {
			n.send(msg.From, Message{Type: MsgNewPrimary, View: n.view,
				Primary: n.cfg.ID, CommitIdx: n.commitIdx,
				Entries: n.entriesAbove(0)})
		}
		return
	}
	if msg.View > n.view {
		// We are behind; adopt after fetching state.
		n.send(msg.From, Message{Type: MsgRequestEntries, Index: n.lastLogIndex() + 1})
		n.lastHB = time.Now() //crane:detflow-ok heartbeat timer, below the consensus boundary
		return
	}
	n.lastHB = time.Now() //crane:detflow-ok heartbeat timer, below the consensus boundary
	if msg.From == n.primary && msg.Done > n.gcFloor {
		// The primary announced a new cluster-minimum done watermark: every
		// replica (including this one) has promised it holds a checkpoint at
		// or above it, so trimming below it loses nothing recoverable.
		n.applyGCFloor(msg.Done)
	}
	if n.status == StatusViewChange && msg.From == n.primary {
		// Primary is alive after all (e.g. transient network blip during
		// our election attempt): return to normal.
		n.status = StatusNormal
		n.electing = false
	}
	if msg.Index > n.lastLogIndex() && msg.From == n.primary {
		// We are missing accepted entries (dropped Accepts): catch up.
		n.send(msg.From, Message{Type: MsgRequestEntries, Index: n.lastLogIndex() + 1})
	}
	n.applyCommit(msg.CommitIdx)
}

// --- election: step 1 (propose a new view) ---

func (n *Node) onProposeView(msg Message) {
	// Tie-break concurrent candidacies deterministically: a candidate
	// yields to an equal-view proposal from a higher node id.
	tie := msg.View == n.promised && n.electing && msg.From > n.cfg.ID
	if (msg.View <= n.promised && !tie) || msg.View <= n.view {
		return
	}
	n.promised = msg.View
	n.status = StatusViewChange
	n.electing = false // defer to the candidate
	// Give the candidate a full timeout to finish: an acceptor whose own
	// timer fired between this promise and the NewPrimary it leads to
	// would depose the winner the moment it starts serving.
	n.lastHB = time.Now() //crane:detflow-ok election timer, below the consensus boundary
	n.send(msg.From, Message{Type: MsgPromiseView, View: msg.View,
		CommitIdx: n.commitIdx, LastNorm: n.lastNorm,
		Entries: n.entriesAbove(msg.CommitIdx)})
}

func (n *Node) onPromiseView(msg Message) {
	if !n.electing || n.electPhase != 1 || msg.View != n.candView {
		return
	}
	m := msg
	n.promises[msg.From] = &m
	n.maybeWinPhase1()
}

func (n *Node) maybeWinPhase1() {
	if len(n.promises) < n.majority() {
		return
	}
	// Merge logs: committed prefix = max commit; uncommitted suffix from
	// the promise with the highest (LastNorm, length).
	var bestCommit uint64
	//crane:detflow-ok max reduction over promises is iteration-order-insensitive
	for _, p := range n.promises {
		if p.CommitIdx > bestCommit {
			bestCommit = p.CommitIdx
		}
	}
	var best *Message
	for _, p := range n.promises {
		if best == nil || p.LastNorm > best.LastNorm ||
			(p.LastNorm == best.LastNorm && lastIdx(p) > lastIdx(best)) {
			best = p
		}
	}
	// Assemble the merged view of all entries above our own commitIdx:
	// prefer entries from `best`, fill committed gaps from any promise.
	merged := make(map[uint64]LogEntry)
	for _, p := range n.promises {
		for _, e := range p.Entries {
			if e.Index <= bestCommit {
				if old, ok := merged[e.Index]; !ok || e.View > old.View {
					merged[e.Index] = e
				}
			}
		}
	}
	for _, e := range best.Entries {
		if e.Index > bestCommit {
			merged[e.Index] = e
		}
	}
	// Build a contiguous suffix starting after our commitIdx.
	var suffix []LogEntry
	for i := n.commitIdx + 1; ; i++ {
		e, ok := merged[i]
		if !ok {
			if le := n.entryAt(i); le != nil && i <= bestCommit {
				e, ok = *le, true
			}
		}
		if !ok {
			break
		}
		e.View = n.candView
		suffix = append(suffix, e)
	}
	n.mergedLog = suffix
	n.mergedCommit = bestCommit
	n.electPhase = 2
	n.primaryAcks = map[int]bool{n.cfg.ID: true}
	n.broadcast(Message{Type: MsgProposePrimary, View: n.candView, Primary: n.cfg.ID})
	n.maybeWinPhase2()
}

func lastIdx(p *Message) uint64 {
	if len(p.Entries) == 0 {
		return p.CommitIdx
	}
	return p.Entries[len(p.Entries)-1].Index
}

// --- election: step 2 (propose self as primary candidate) ---

func (n *Node) onProposePrimary(msg Message) {
	if msg.View != n.promised || msg.View <= n.view {
		return
	}
	n.send(msg.From, Message{Type: MsgAckPrimary, View: msg.View})
}

func (n *Node) onAckPrimary(msg Message) {
	if !n.electing || n.electPhase != 2 || msg.View != n.candView {
		return
	}
	n.primaryAcks[msg.From] = true
	n.maybeWinPhase2()
}

func (n *Node) maybeWinPhase2() {
	if len(n.primaryAcks) < n.majority() {
		return
	}
	// --- step 3: announce self as the new primary ---
	n.installNewView(n.candView, n.cfg.ID, n.mergedCommit, n.mergedLog)
	n.broadcast(Message{Type: MsgNewPrimary, View: n.view, Primary: n.cfg.ID,
		CommitIdx: n.commitIdx, Entries: n.mergedLog})
	// Re-propose any uncommitted suffix under the new view as batched
	// Accept rounds (MaxBatch entries per round).
	for first := n.commitIdx + 1; first <= n.lastLogIndex(); {
		last := first + uint64(n.cfg.MaxBatch) - 1
		if lli := n.lastLogIndex(); last > lli {
			last = lli
		}
		ents := make([]LogEntry, 0, last-first+1)
		for i := first; i <= last; i++ {
			n.acks[i] = map[int]bool{n.cfg.ID: true}
			ents = append(ents, *n.entryAt(i))
		}
		n.broadcastAccept(ents)
		first = last + 1
	}
	n.mu.Lock()
	n.lastElectionMs = float64(time.Since(n.electionStart).Microseconds()) / 1000.0 //crane:detflow-ok election-latency stat read by benches, below the consensus boundary
	n.mu.Unlock()
	n.electing = false
	n.tryAdvanceCommit()
}

func (n *Node) onNewPrimary(msg Message) {
	if msg.View < n.view || (msg.View == n.view && n.status == StatusNormal) {
		return
	}
	n.installNewView(msg.View, msg.Primary, msg.CommitIdx, msg.Entries)
	n.lastHB = time.Now() //crane:detflow-ok heartbeat timer, below the consensus boundary
}

// installNewView adopts view/primary and reconciles the log: entries above
// our commit index are replaced by the announced suffix; newly learned
// committed entries are committed locally.
func (n *Node) installNewView(view uint64, primary int, commit uint64, suffix []LogEntry) {
	// Drop our uncommitted suffix.
	if n.lastLogIndex() > n.commitIdx {
		n.log = n.log[:n.commitIdx-n.base]
	}
	for _, e := range suffix {
		if e.Index == n.lastLogIndex()+1 {
			le := e
			le.View = view
			n.log = append(n.log, le)
		}
	}
	n.view = view
	n.primary = primary
	n.status = StatusNormal
	n.lastNorm = view
	if n.promised < view {
		n.promised = view
	}
	n.electing = false
	n.resetBatcher()
	n.commitThrough(commit)
	if n.commitIdx < commit {
		n.send(primary, Message{Type: MsgRequestEntries, Index: n.lastLogIndex() + 1})
	}
	n.mu.Lock()
	n.viewCount++
	n.mu.Unlock()
	if n.cfg.OnViewChange != nil {
		n.cfg.OnViewChange(view, primary)
	}
	// Ack any uncommitted entries we just installed (one cumulative OK).
	if primary != n.cfg.ID && n.lastLogIndex() > n.commitIdx {
		n.sendAcceptOK(primary, n.lastLogIndex())
	}
}

// --- catch-up ---

// catchUpBatch caps one catch-up reply; a lagging node re-requests until
// level. Unbounded replies would make recovery quadratic under load.
const catchUpBatch = 2048

func (n *Node) onRequestEntries(msg Message) {
	if n.status != StatusNormal || n.primary != n.cfg.ID {
		return
	}
	from := msg.Index
	if from <= n.base {
		from = n.base + 1
	}
	ents := n.entriesAbove(from - 1)
	if len(ents) > catchUpBatch {
		ents = ents[:catchUpBatch]
	}
	n.send(msg.From, Message{Type: MsgEntries, View: n.view,
		CommitIdx: n.commitIdx, Entries: ents, Primary: n.cfg.ID})
}

func (n *Node) onEntries(msg Message) {
	if msg.View < n.view {
		return
	}
	if msg.View > n.view {
		// Adopt the newer view along with its entries.
		n.installNewView(msg.View, msg.Primary, 0, nil)
	}
	n.lastHB = time.Now() //crane:detflow-ok heartbeat timer, below the consensus boundary
	appendedUncommitted := false
	for _, e := range msg.Entries {
		if e.Index == n.lastLogIndex()+1 {
			n.log = append(n.log, e)
			if e.Index > msg.CommitIdx {
				appendedUncommitted = true
			}
		}
	}
	if appendedUncommitted {
		// One cumulative OK covers every uncommitted entry just appended.
		n.sendAcceptOK(msg.From, n.lastLogIndex())
	}
	if len(msg.Entries) == catchUpBatch && n.lastLogIndex() < msg.CommitIdx {
		// More committed entries remain: keep pulling.
		n.send(msg.From, Message{Type: MsgRequestEntries, Index: n.lastLogIndex() + 1})
	}
	n.applyCommit(msg.CommitIdx)
}
