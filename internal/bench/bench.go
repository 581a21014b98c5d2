// Package bench is the experiment harness for §7 of the paper: it deploys
// each evaluated server under each execution mode, drives the matching
// workload, and produces the rows of every table and series of every
// figure. The root-level benchmarks (bench_test.go) and cmd/crane-bench
// both delegate here; EXPERIMENTS.md records the outputs next to the
// paper's numbers.
package bench

import (
	"fmt"
	"time"

	"crane/internal/apps/clamav"
	"crane/internal/apps/clients"
	"crane/internal/apps/httpd"
	"crane/internal/apps/mediatomb"
	"crane/internal/apps/mongoose"
	"crane/internal/apps/mysqld"
	"crane/internal/crane"
	"crane/internal/papi"
	"crane/internal/simnet"
)

// Scale sizes a run: request counts and per-request work, tuned so the
// full suite completes on a laptop-class machine while preserving the
// workload mixes (CPU-, network-, and file-IO-bound, §7).
type Scale struct {
	Requests    int // total requests per cell
	Concurrency int // concurrent clients (must be <= server workers)
	PrepareRows int // sysbench table size
}

// SmallScale keeps cells around a second; the default for tests.
var SmallScale = Scale{Requests: 16, Concurrency: 4, PrepareRows: 30}

// FullScale approaches the paper's 1K-request runs.
var FullScale = Scale{Requests: 120, Concurrency: 6, PrepareRows: 200}

// AppSpec binds one evaluated server program to its §7 workload.
type AppSpec struct {
	// Name matches the paper's program name.
	Name string
	// Port is the program's service port.
	Port int
	// Program builds the deployable program; useHints enables the
	// two-line soft-barrier hints (§7.4, only meaningful for Apache and
	// Mongoose).
	Program func(useHints bool) papi.Program
	// Prepare optionally seeds the server (sysbench's prepare phase).
	Prepare func(d clients.Dialer, s Scale) error
	// Workload drives the §7 benchmark and reports latency statistics.
	Workload func(d clients.Dialer, s Scale) clients.Summary
	// Dirty optionally mutates server filesystem state before a
	// checkpoint is taken (Table 2 needs a non-empty working set).
	Dirty func(d clients.Dialer)
	// HintsApply marks the two servers Figure 15 evaluates.
	HintsApply bool
}

// Specs returns the five evaluated servers with simulation-scaled work
// parameters.
func Specs() []AppSpec {
	return []AppSpec{
		{
			Name: "Apache", Port: 8080, HintsApply: true,
			Program: func(hints bool) papi.Program {
				cfg := httpd.DefaultConfig()
				cfg.Workers = 8
				cfg.UseHints = hints
				cfg.HintGroup = 4 // match workload concurrency
				// ~20k work units per page (~6ms): the scaled analogue of
				// the paper's 70ms PHP pages.
				cfg.PHPChunks = 8
				cfg.PHPChunkWork = 2500
				// Every request interprets (the paper's pages take ~70ms
				// of PHP work each; a cache would hide the workload).
				cfg.CacheEnabled = false
				cfg.WithDate = false
				return httpd.Program(cfg)
			},
			Workload: func(d clients.Dialer, s Scale) clients.Summary {
				return clients.ApacheBench(d, 8080, "/page0.php", s.Concurrency, s.Requests)
			},
			Dirty: func(d clients.Dialer) {
				for i := 0; i < 4; i++ {
					clients.Curl(d, fmt.Sprintf("dirty:%d", i), 8080, "PUT",
						fmt.Sprintf("/upload%d.html", i),
						[]byte(fmt.Sprintf("<html>uploaded %d</html>", i)))
				}
			},
		},
		{
			Name: "Mongoose", Port: 8081, HintsApply: true,
			Program: func(hints bool) papi.Program {
				cfg := mongoose.DefaultConfig()
				cfg.Workers = 6
				cfg.UseHints = hints
				cfg.HintGroup = 4
				cfg.ScriptChunks = 6
				cfg.ScriptChunkWork = 2000
				cfg.WithDate = false
				return mongoose.Program(cfg)
			},
			Workload: func(d clients.Dialer, s Scale) clients.Summary {
				return clients.ApacheBench(d, 8081, "/app0.php", s.Concurrency, s.Requests)
			},
			Dirty: func(d clients.Dialer) {
				clients.Curl(d, "dirty:1", 8081, "PUT", "/posted.html", []byte("posted"))
			},
		},
		{
			Name: "ClamAV", Port: 3310,
			Program: func(bool) papi.Program {
				cfg := clamav.DefaultConfig()
				cfg.WorkPerKB = 60 // ~5ms per tree scan
				return clamav.Program(cfg)
			},
			Workload: func(d clients.Dialer, s Scale) clients.Summary {
				// Scan the clean subtree so repeated scans are stable.
				return clients.ClamBench(d, 3310, "src/clamav/file", 2, maxI(s.Requests/2, 4))
			},
			Dirty: func(d clients.Dialer) {
				// A full scan deletes the two infected files: fs delta.
				clients.ClamdScan(d, "dirty:1", 3310, "src/clamav")
			},
		},
		{
			Name: "MediaTomb", Port: 50500,
			Program: func(bool) papi.Program {
				cfg := mediatomb.DefaultConfig()
				// The longest requests of the evaluation (9.7s in the
				// paper; ~10ms scaled here).
				cfg.Segments = 6
				cfg.WorkPerSegment = 5500
				return mediatomb.Program(cfg)
			},
			Workload: func(d clients.Dialer, s Scale) clients.Summary {
				// Transcodes are the longest requests (paper: 9.7s each);
				// run fewer of them.
				return clients.MediaBench(d, 50500, "video0.avi", 2, maxI(s.Requests/4, 3))
			},
		},
		{
			Name: "MySQL", Port: 3306,
			Program: func(bool) papi.Program {
				cfg := mysqld.DefaultConfig()
				cfg.Workers = 10
				cfg.WorkPerQuery = 4000 // ~1.2ms per query
				return mysqld.Program(cfg)
			},
			Prepare: func(d clients.Dialer, s Scale) error {
				return clients.SysBenchPrepare(d, "prep:1", 3306, s.PrepareRows)
			},
			Workload: func(d clients.Dialer, s Scale) clients.Summary {
				return clients.SysBench(d, 3306, s.PrepareRows, s.Concurrency, s.Requests)
			},
		},
	}
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ClusterConfig is the common deployment shape for experiment cells.
func ClusterConfig(mode crane.Mode) crane.Config {
	return crane.Config{
		Mode:     mode,
		Replicas: 3,
		Lanes:    DeployLanes,
		Wtimeout: 100 * time.Microsecond, // paper default
		Nclock:   1000,                   // paper default
		NetOptions: simnet.Options{
			Latency: 30 * time.Microsecond,
			Jitter:  80 * time.Microsecond,
		},
		HubLatency:        20 * time.Microsecond,
		HubJitter:         50 * time.Microsecond,
		HeartbeatInterval: 30 * time.Millisecond,
	}
}

// Cell is one (app, configuration) measurement.
type Cell struct {
	App     string
	Mode    string
	Summary clients.Summary
	// Normalized is this cell's median over the baseline median
	// (the paper normalizes to un-replicated nondeterministic execution;
	// >1 means slower than baseline).
	Normalized float64
	// Bubble statistics from the primary's Paxos sequence (Table 1).
	ClientCalls uint64
	Bubbles     uint64
	BubbleRatio float64
	// Rounds is how many bursts the primary's proxy proposed and
	// BubbleRounds how many of them were starvation rounds, which carry
	// bubbles only: the share of consensus rounds spent on time alone. A
	// bubble that rode the burst of a SEND is an entry, not a round.
	Rounds       uint64
	BubbleRounds uint64
}

// bubbleAccounting fills in the cell's Table 1 columns from the cluster's
// sequence counters and the primary's burst and starvation-round counts.
func (c *Cell) bubbleAccounting(cluster *crane.Cluster) {
	st := cluster.SeqStats()
	c.ClientCalls, c.Bubbles, c.BubbleRatio = st.ClientCalls, st.Bubbles, st.BubbleRatio()
	if p, err := cluster.Primary(); err == nil {
		m := p.Metrics()
		c.Rounds, c.BubbleRounds = m.Bursts, m.StarvationRounds
	}
}

// RunCellWithMetrics is RunCell plus per-replica metric lines captured at
// the end of the workload (for interactive tools).
func RunCellWithMetrics(spec AppSpec, cfg crane.Config, useHints bool, s Scale) (Cell, []string, error) {
	cluster, err := crane.StartCluster(cfg, spec.Program(useHints))
	if err != nil {
		return Cell{}, nil, fmt.Errorf("bench: %s/%s: %w", spec.Name, cfg.Mode, err)
	}
	defer cluster.Stop()
	if spec.Prepare != nil {
		if err := spec.Prepare(cluster.Dial, s); err != nil {
			return Cell{}, nil, fmt.Errorf("bench: %s prepare: %w", spec.Name, err)
		}
	}
	cell := Cell{App: spec.Name, Mode: cfg.Mode.String(), Summary: spec.Workload(cluster.Dial, s)}
	cell.bubbleAccounting(cluster)
	var lines []string
	for _, m := range cluster.ClusterMetrics() {
		lines = append(lines, m.String())
	}
	return cell, lines, nil
}

// RunCell deploys spec under cfg, runs the workload, and returns the cell.
func RunCell(spec AppSpec, cfg crane.Config, useHints bool, s Scale) (Cell, error) {
	cluster, err := crane.StartCluster(cfg, spec.Program(useHints))
	if err != nil {
		return Cell{}, fmt.Errorf("bench: %s/%s: %w", spec.Name, cfg.Mode, err)
	}
	defer cluster.Stop()
	if spec.Prepare != nil {
		if err := spec.Prepare(cluster.Dial, s); err != nil {
			return Cell{}, fmt.Errorf("bench: %s prepare: %w", spec.Name, err)
		}
	}
	cell := Cell{App: spec.Name, Mode: cfg.Mode.String(), Summary: spec.Workload(cluster.Dial, s)}
	cell.bubbleAccounting(cluster)
	return cell, nil
}
