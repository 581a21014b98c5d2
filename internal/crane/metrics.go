package crane

import (
	"fmt"
	"strings"

	"crane/internal/seq"
)

// Metrics is a point-in-time snapshot of one replica's observable state,
// aggregating the DMT scheduler, the Paxos sequence, and the consensus
// node — the operational introspection surface a deployment would scrape.
type Metrics struct {
	Replica   int
	Primary   bool
	View      uint64
	ViewPrim  int
	CommitIdx uint64

	// DMT scheduler counters (zero in non-DMT modes).
	LogicalClock uint64
	TokenPasses  uint64
	Waits        uint64
	Signals      uint64
	Threads      uint64

	// Paxos sequence counters (lane 0's; Replica.SeqStats sums the lanes).
	Seq seq.Stats

	// Bursts the proxy proposed (one ProposeBatch each) and how many of
	// them were starvation rounds, which carry bubbles only. Primary only.
	Bursts           uint64
	StarvationRounds uint64

	// Connections currently alive on the server side.
	OpenConns int64

	// Outputs logged (responses; only the primary's reach clients).
	Outputs int
}

// Metrics captures the replica's current counters.
func (r *Replica) Metrics() Metrics {
	m := Metrics{
		Replica:   r.id,
		Seq:       r.sqs[0].Stats(),
		OpenConns: r.openConns.Load(),
		Outputs:   r.out.Len(),

		Bursts:           r.ro.burstSize.Count(),
		StarvationRounds: r.ro.bubbleReqs.Value(),
	}
	if len(r.nodes) > 0 {
		// The scalar consensus fields are group 0's, like IsPrimary.
		m.Primary = r.nodes[0].IsPrimary()
		m.View, m.ViewPrim = r.nodes[0].View()
		m.CommitIdx = r.nodes[0].CommitIndex()
	}
	if pproc := r.pproc; pproc != nil {
		st := pproc.Sched.Stats()
		m.LogicalClock = st.Clock
		m.TokenPasses = st.TokenPasses
		m.Waits = st.Waits
		m.Signals = st.Signals
		m.Threads = st.Spawned
	}
	return m
}

// String renders the metrics as a single status line.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replica%d", m.Replica)
	if m.Primary {
		b.WriteString("[primary]")
	}
	fmt.Fprintf(&b, " view=%d/%d commit=%d", m.View, m.ViewPrim, m.CommitIdx)
	fmt.Fprintf(&b, " clock=%d threads=%d", m.LogicalClock, m.Threads)
	fmt.Fprintf(&b, " seq{calls=%d bubbles=%d pending=%d}",
		m.Seq.ClientCalls, m.Seq.Bubbles, m.Seq.Pending)
	fmt.Fprintf(&b, " conns=%d outputs=%d", m.OpenConns, m.Outputs)
	return b.String()
}

// ClusterMetrics snapshots every live replica.
func (c *Cluster) ClusterMetrics() []Metrics {
	var out []Metrics
	for _, r := range c.replicas {
		if !r.killed() {
			out = append(out, r.Metrics())
		}
	}
	return out
}
