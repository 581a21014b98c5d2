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
	Store     Store
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
	// checkpoint instead). NewNode refuses a Store compacted past
	// DeliverFrom+1.
	DeliverFrom uint64
	// InitialPrimary leads view 0; -1 for a node rejoining a running cluster.
	InitialPrimary int
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

// Store persists committed entries; *wal.Log is the production one.
type Store interface {
	AppendBatch(recs []wal.Record) error
	First() (uint64, bool)
	Scan(from, to uint64, fn func(wal.Record) bool) error
	CompactBefore(from uint64) error
}

// Batching bounds. The batcher coalesces up to MaxBatch queued payloads,
// at most MaxBatchBytes of them (one oversized payload still ships alone),
// into one Accept round, and keeps up to MaxInflight rounds awaiting a
// majority.
const (
	MaxBatch      = 64
	MaxBatchBytes = 256 << 10
	MaxInflight   = 4
)

// Errors returned by Propose: on a non-primary node, and after Stop.
var (
	ErrNotPrimary = errors.New("paxos: not primary")
	ErrStopped    = errors.New("paxos: stopped")
)

// Node is one consensus replica: the protocol core behind a thin driver.
// The driver owns the goroutine, the clock and the reader mirror; the core
// (core.go) owns the protocol.
type Node struct {
	c *core // touched only by the loop goroutine once Start has run

	events chan event
	done   chan struct{}
	// exited is closed when the event loop returns; Stop waits on it so a
	// caller may release what the loop writes to (the WAL) right after.
	exited chan struct{}

	mu      sync.Mutex
	m       mirror // the readers' copy of the core, published after each step
	started bool
	stopped bool
}

// mirror is what Node's readers see of the core.
type mirror struct {
	view, commit, gcFloor, viewCount uint64
	primary                          int
	status                           Status
	electionMs                       float64
}

// NewNode creates a node; call Start to run it. It fails when the store
// begins above DeliverFrom+1 (a prefix compacted away that no checkpoint
// covers).
func NewNode(cfg Config) (*Node, error) {
	c, err := newCore(cfg)
	if err != nil {
		return nil, err
	}
	n := &Node{
		c:      c,
		events: make(chan event, 4096),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	if cfg.Obs != nil {
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
	// Until the loop runs, readers see the configured primary, not the zero
	// values: a rejoining node 0 would otherwise report itself primary.
	n.publish()
	return n, nil
}

// Start launches the event loop and begins heartbeating/elections.
func (n *Node) Start() {
	n.c.cfg.Transport.SetHandler(func(msg Message) {
		select {
		case n.events <- event{kind: evMsg, msg: &msg}:
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
	ev := event{kind: evPropose, batch: payloads, reply: make(chan error, 1)}
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
	m := n.read()
	return m.primary == n.c.cfg.ID && m.status == StatusNormal
}

// View returns the current view number and primary id.
func (n *Node) View() (uint64, int) { m := n.read(); return m.view, m.primary }

// CommitIndex returns the highest committed global index.
func (n *Node) CommitIndex() uint64 { return n.read().commit }

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
	case n.events <- event{kind: evCampaign}:
	case <-n.done:
	}
}

// ViewChanges returns how many times this node entered a new Normal view.
func (n *Node) ViewChanges() uint64 { return n.read().viewCount }

// LastElectionMillis returns the duration of the last election this node
// won, in milliseconds (0 if it never won one). Benches §7.6 use it.
func (n *Node) LastElectionMillis() float64 { return n.read().electionMs }

// SetDone advances this node's done watermark: a promise that it no longer
// needs entries with index <= idx (it holds a checkpoint anchored at or
// above idx, §5.2). The watermark piggybacks on AcceptOK replies; when the
// primary sees every peer's watermark it compacts to the cluster minimum
// and announces that floor on heartbeats, where backups apply it. GC never
// runs below any replica's promise, and a node that never calls SetDone
// pins the whole cluster at full retention. Fire-and-forget.
func (n *Node) SetDone(idx uint64) {
	select {
	case n.events <- event{kind: evDone, done: idx}:
	case <-n.done:
	}
}

// GCFloor returns the highest compaction floor this node has applied via
// the Done/Min protocol (0 until the cluster minimum first advances).
func (n *Node) GCFloor() uint64 { return n.read().gcFloor }

func (n *Node) read() mirror {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.m
}

// publish copies the core's reader-visible state into the mirror.
func (n *Node) publish() {
	c := n.c
	m := mirror{view: c.view, commit: c.commitIdx, gcFloor: c.gcFloor, viewCount: c.viewCount,
		primary: c.primary, status: c.status, electionMs: c.lastElectionMs}
	n.mu.Lock()
	n.m = m
	n.mu.Unlock()
}

// loop is the driver: it turns channel receives and ticker fires into
// events, reads the clock once per event, steps the core and publishes.
func (n *Node) loop() {
	defer close(n.exited)
	tick := n.c.cfg.HeartbeatInterval / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	ev := event{kind: evStart}
	for {
		err := n.c.step(time.Now(), ev)
		if ev.reply != nil {
			ev.reply <- err
		}
		n.publish()
		//crane:detflow-ok event-loop arm order is below consensus; decided order is what replicas see
		select {
		case <-n.done:
			n.c.cfg.Transport.Close()
			return
		case ev = <-n.events:
		case <-ticker.C:
			ev = event{kind: evTick}
		}
	}
}
