package bench

import (
	"fmt"
	"io"
	"regexp"
	"sync"
	"time"

	"crane/internal/apps/clients"
	"crane/internal/apps/httpd"
	"crane/internal/apps/httpkit"
	"crane/internal/checkpoint"
	"crane/internal/crane"
	"crane/internal/trace"
)

// --- Figure 14: performance normalized to un-replicated nondeterministic ---

// Fig14Row is one server's four bars.
type Fig14Row struct {
	App                                 string
	BaselineMedian                      time.Duration
	ParrotOnly, PaxosOnly, Crane        float64 // normalized medians (>1: slower)
	ParrotErrors, PaxosErrors, CraneErr int
}

// Figure14 runs every server under the four modes of Figure 14.
func Figure14(s Scale, w io.Writer) ([]Fig14Row, error) {
	var rows []Fig14Row
	for _, spec := range Specs() {
		row := Fig14Row{App: spec.Name}
		base, err := RunCell(spec, ClusterConfig(crane.ModeNondet), false, s)
		if err != nil {
			return rows, err
		}
		row.BaselineMedian = base.Summary.Median
		norm := func(c Cell) float64 {
			if base.Summary.Median <= 0 {
				return 0
			}
			return float64(c.Summary.Median) / float64(base.Summary.Median)
		}
		parrot, err := RunCell(spec, ClusterConfig(crane.ModeParrotOnly), false, s)
		if err != nil {
			return rows, err
		}
		row.ParrotOnly, row.ParrotErrors = norm(parrot), parrot.Summary.Errors
		paxos, err := RunCell(spec, ClusterConfig(crane.ModePaxosOnly), false, s)
		if err != nil {
			return rows, err
		}
		row.PaxosOnly, row.PaxosErrors = norm(paxos), paxos.Summary.Errors
		full, err := RunCell(spec, ClusterConfig(crane.ModeCrane), false, s)
		if err != nil {
			return rows, err
		}
		row.Crane, row.CraneErr = norm(full), full.Summary.Errors
		rows = append(rows, row)
		if w != nil {
			fmt.Fprintf(w, "Fig14 %-10s baseline=%-10v parrot=%.2fx paxos=%.2fx crane=%.2fx\n",
				row.App, row.BaselineMedian.Round(time.Microsecond),
				row.ParrotOnly, row.PaxosOnly, row.Crane)
		}
	}
	return rows, nil
}

// --- Table 1: ratio of time bubbles in all consensus requests ---

// Table1Row is one server's bubble accounting.
type Table1Row struct {
	App         string
	ClientCalls uint64
	Bubbles     uint64
	Ratio       float64 // bubble entries ÷ entries (the paper's column)
	// RoundRatio is bubble-only rounds ÷ rounds: since a burst can carry
	// its own bubble, entries and rounds no longer move together.
	RoundRatio float64
}

// Table1 runs every server under full CRANE and reports bubble ratios.
func Table1(s Scale, w io.Writer) ([]Table1Row, error) {
	var rows []Table1Row
	for _, spec := range Specs() {
		cell, err := RunCell(spec, ClusterConfig(crane.ModeCrane), false, s)
		if err != nil {
			return rows, err
		}
		row := Table1Row{App: spec.Name, ClientCalls: cell.ClientCalls,
			Bubbles: cell.Bubbles, Ratio: cell.BubbleRatio}
		if cell.Rounds > 0 {
			row.RoundRatio = float64(cell.BubbleRounds) / float64(cell.Rounds)
		}
		rows = append(rows, row)
		if w != nil {
			fmt.Fprintf(w, "Table1 %-10s client-calls=%-6d bubbles=%-5d ratio=%.2f%% bubble-only-rounds=%d/%d (%.2f%%)\n",
				row.App, row.ClientCalls, row.Bubbles, 100*row.Ratio,
				cell.BubbleRounds, cell.Rounds, 100*row.RoundRatio)
		}
	}
	return rows, nil
}

// --- Figure 15: soft-barrier performance hints (Apache, Mongoose) ---

// Fig15Row compares CRANE with and without the two-line hints.
type Fig15Row struct {
	App                   string
	WithoutHints          time.Duration
	WithHints             time.Duration
	SpeedupWithHints      float64 // without/with (>1: hints help)
	NormalizedWithout     float64 // vs nondet baseline
	NormalizedWith        float64
	BaselineMedian        time.Duration
	ErrorsWithoutWithHint [2]int
}

// Figure15 measures the hint effect on the two hint-taking servers.
func Figure15(s Scale, w io.Writer) ([]Fig15Row, error) {
	var rows []Fig15Row
	for _, spec := range Specs() {
		if !spec.HintsApply {
			continue
		}
		base, err := RunCell(spec, ClusterConfig(crane.ModeNondet), false, s)
		if err != nil {
			return rows, err
		}
		without, err := RunCell(spec, ClusterConfig(crane.ModeCrane), false, s)
		if err != nil {
			return rows, err
		}
		with, err := RunCell(spec, ClusterConfig(crane.ModeCrane), true, s)
		if err != nil {
			return rows, err
		}
		row := Fig15Row{
			App:            spec.Name,
			WithoutHints:   without.Summary.Median,
			WithHints:      with.Summary.Median,
			BaselineMedian: base.Summary.Median,
			ErrorsWithoutWithHint: [2]int{
				without.Summary.Errors, with.Summary.Errors},
		}
		if with.Summary.Median > 0 {
			row.SpeedupWithHints = float64(without.Summary.Median) / float64(with.Summary.Median)
		}
		if base.Summary.Median > 0 {
			row.NormalizedWithout = float64(without.Summary.Median) / float64(base.Summary.Median)
			row.NormalizedWith = float64(with.Summary.Median) / float64(base.Summary.Median)
		}
		rows = append(rows, row)
		if w != nil {
			fmt.Fprintf(w, "Fig15 %-10s w/o-hints=%.2fx w/-hints=%.2fx (speedup %.2fx)\n",
				row.App, row.NormalizedWithout, row.NormalizedWith, row.SpeedupWithHints)
		}
	}
	return rows, nil
}

// --- Figures 16/17: W_timeout and N_clock sensitivity ---

// SweepPoint is one (parameter value, median) sample, normalized to the
// default-parameter run of the same server.
type SweepPoint struct {
	App        string
	Value      string
	Median     time.Duration
	Normalized float64
	Errors     int
}

// Wtimeouts are Figure 16's sweep values (µs).
var Wtimeouts = []time.Duration{
	1 * time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond,
	1000 * time.Microsecond, 10000 * time.Microsecond,
}

// Nclocks are Figure 17's sweep values.
var Nclocks = []uint64{100, 1000, 10000}

// Figure16 sweeps W_timeout for every server under full CRANE.
func Figure16(s Scale, w io.Writer) ([]SweepPoint, error) {
	return sweep(s, w, "Fig16", Wtimeouts, func(cfg *crane.Config, v time.Duration) string {
		cfg.Wtimeout = v
		return v.String()
	})
}

// Figure17 sweeps N_clock for every server under full CRANE.
func Figure17(s Scale, w io.Writer) ([]SweepPoint, error) {
	return sweep(s, w, "Fig17", Nclocks, func(cfg *crane.Config, v uint64) string {
		cfg.Nclock = v
		return fmt.Sprintf("%d", v)
	})
}

func sweep[V any](s Scale, w io.Writer, tag string, values []V, apply func(*crane.Config, V) string) ([]SweepPoint, error) {
	var points []SweepPoint
	for _, spec := range Specs() {
		var defMedian time.Duration
		var local []SweepPoint
		for _, v := range values {
			cfg := ClusterConfig(crane.ModeCrane)
			label := apply(&cfg, v)
			cell, err := RunCell(spec, cfg, false, s)
			if err != nil {
				return points, err
			}
			p := SweepPoint{App: spec.Name, Value: label,
				Median: cell.Summary.Median, Errors: cell.Summary.Errors}
			local = append(local, p)
			if isDefault(tag, label) {
				defMedian = p.Median
			}
		}
		for i := range local {
			if defMedian > 0 {
				local[i].Normalized = float64(local[i].Median) / float64(defMedian)
			}
			if w != nil {
				fmt.Fprintf(w, "%s %-10s %-8s median=%-10v norm=%.2fx\n", tag,
					local[i].App, local[i].Value,
					local[i].Median.Round(time.Microsecond), local[i].Normalized)
			}
		}
		points = append(points, local...)
	}
	return points, nil
}

func isDefault(tag, label string) bool {
	return (tag == "Fig16" && label == "100µs") || (tag == "Fig17" && label == "1000")
}

// --- Table 2: checkpoint and restore costs ---

// Table2Row is one server's four timing columns plus patch size.
type Table2Row struct {
	App        string
	Cp, Rp     time.Duration // process checkpoint / restore
	Cfs, Rfs   time.Duration // filesystem checkpoint / restore
	PatchBytes int
}

// Table2 checkpoints each server on a backup replica mid-deployment and
// restores the image, timing the four components (§7.6 Table 2).
func Table2(s Scale, w io.Writer) ([]Table2Row, error) {
	var rows []Table2Row
	for _, spec := range Specs() {
		cluster, err := crane.StartCluster(ClusterConfig(crane.ModeCrane), spec.Program(false))
		if err != nil {
			return rows, err
		}
		if spec.Prepare != nil {
			if err := spec.Prepare(cluster.Dial, s); err != nil {
				cluster.Stop()
				return rows, fmt.Errorf("bench: table2 %s prepare: %w", spec.Name, err)
			}
		}
		// Drive some load so there is state to checkpoint.
		spec.Workload(cluster.Dial, Scale{Requests: maxI(s.Requests/2, 4),
			Concurrency: 2, PrepareRows: s.PrepareRows})
		if spec.Dirty != nil {
			spec.Dirty(cluster.Dial)
		}
		if err := cluster.WaitQuiescent(30 * time.Second); err != nil {
			cluster.Stop()
			return rows, fmt.Errorf("bench: table2 %s: %w", spec.Name, err)
		}
		cp := checkpoint.New(checkpoint.Options{Backoff: time.Millisecond})
		ck, tm, err := cluster.CheckpointBackup(cp)
		if err != nil {
			cluster.Stop()
			return rows, fmt.Errorf("bench: table2 %s checkpoint: %w", spec.Name, err)
		}
		// Restore into fresh state (fs from base + patch; process image
		// into a new instance).
		p, _ := cluster.Primary()
		var backup *crane.Replica
		for i := 0; i < cluster.Replicas(); i++ {
			if cluster.Replica(i) != p {
				backup = cluster.Replica(i)
				break
			}
		}
		_, rfs, err := cp.RestoreFS(ck, backup.BaseSnapshot())
		if err != nil {
			cluster.Stop()
			return rows, err
		}
		inst := spec.Program(false).New(backup.FS())
		rpStart := time.Now()
		if err := inst.Restore(ck.Process); err != nil {
			cluster.Stop()
			return rows, err
		}
		rp := time.Since(rpStart)
		cluster.Stop()
		row := Table2Row{App: spec.Name, Cp: tm.CheckpointProcess, Rp: rp,
			Cfs: tm.CheckpointFS, Rfs: rfs, PatchBytes: tm.FSPatchBytes}
		rows = append(rows, row)
		if w != nil {
			fmt.Fprintf(w, "Table2 %-10s Cp=%-10v Rp=%-10v Cfs=%-10v Rfs=%-10v patch=%dB\n",
				row.App, row.Cp.Round(time.Microsecond), row.Rp.Round(time.Microsecond),
				row.Cfs.Round(time.Microsecond), row.Rfs.Round(time.Microsecond), row.PatchBytes)
		}
	}
	return rows, nil
}

// --- §7.2: consistency of network outputs (plans I and II) ---

// ConsistencyResult summarizes repeated PUT/GET races.
type ConsistencyResult struct {
	Runs          int
	Divergent     int // runs where replica output logs differed
	NotFound      int // runs whose GET returned 404
	OK            int // runs whose GET returned 200
	OtherStatuses int
}

// Consistency runs the §7.2 experiment `runs` times under the given mode
// (ModeCrane = plan I, ModeCraneNoBubble = plan II): a concurrent mixed
// PUT/GET workload (the paper ran its performance workloads when comparing
// replica logs) plus the curl PUT/GET race on one page, then diffs every
// replica's network-output log. Divergence requires admission timing to
// interact with in-flight execution, which needs genuine concurrency.
func Consistency(mode crane.Mode, runs int, w io.Writer) (ConsistencyResult, error) {
	var res ConsistencyResult
	re := regexp.MustCompile(httpkit.DateHeaderPattern)
	for run := 0; run < runs; run++ {
		cfg := httpd.DefaultConfig()
		cfg.PHPChunks = 4
		cfg.PHPChunkWork = 500
		cfg.Workers = 8
		cfg.CacheEnabled = true // cache makes outputs interleaving-sensitive
		cluster, err := crane.StartCluster(ClusterConfig(mode), httpd.Program(cfg))
		if err != nil {
			return res, err
		}
		for i := 0; i < cluster.Replicas(); i++ {
			cluster.Replica(i).Outputs().SetNormalizer(re)
		}
		// Concurrent mixed workload: PUTs and GETs racing on two pages
		// while background GETs keep workers mid-computation.
		var wg sync.WaitGroup
		var getStatus int
		for c := 0; c < 4; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 3; r++ {
					client := fmt.Sprintf("cc%d-%d:%d", run, c, r)
					switch c % 4 {
					case 0:
						clients.Curl(cluster.Dial, client, 8080, "PUT", "/a.php",
							[]byte(fmt.Sprintf("<?php v%d ?>", r)))
					case 1:
						st, _, _ := clients.Curl(cluster.Dial, client, 8080, "GET", "/a.php", nil)
						if r == 0 {
							getStatus = st
						}
					default:
						clients.Curl(cluster.Dial, client, 8080, "GET", "/page0.php", nil)
					}
				}
			}()
		}
		wg.Wait()
		switch getStatus {
		case 200:
			res.OK++
		case 404:
			res.NotFound++
		default:
			res.OtherStatuses++
		}
		// Give backups a bounded window to finish consuming; plan II may
		// legitimately wedge a backup (that *is* divergence).
		cluster.WaitQuiescent(3 * time.Second)
		if divs := trace.DiffAll(cluster.OutputLogs()); len(divs) > 0 {
			res.Divergent++
		}
		cluster.Stop()
		res.Runs++
	}
	if w != nil {
		fmt.Fprintf(w, "Consistency(%v) runs=%d divergent=%d 200s=%d 404s=%d\n",
			mode, res.Runs, res.Divergent, res.OK, res.NotFound)
	}
	return res, nil
}

// --- §7.6: leader election and failover ---

// ElectionResult times a forced failover.
type ElectionResult struct {
	DetectAndElect time.Duration // kill -> new primary observable
	ElectionPhase  float64       // the 3-step election itself, ms
}

// Election kills the primary of a running cluster and measures recovery.
func Election(w io.Writer) (ElectionResult, error) {
	cfg := ClusterConfig(crane.ModeCrane)
	cfg.HeartbeatInterval = 10 * time.Millisecond
	cfg.ElectionTimeout = 40 * time.Millisecond
	spec := Specs()[0] // Apache, as in §7.6's Mongoose-like setup
	cluster, err := crane.StartCluster(cfg, spec.Program(false))
	if err != nil {
		return ElectionResult{}, err
	}
	defer cluster.Stop()
	clients.Curl(cluster.Dial, "warm:1", spec.Port, "GET", "/index.html", nil)
	if _, err := cluster.FailPrimary(); err != nil {
		return ElectionResult{}, err
	}
	start := time.Now()
	p, err := cluster.Primary()
	if err != nil {
		return ElectionResult{}, err
	}
	res := ElectionResult{
		DetectAndElect: time.Since(start),
		ElectionPhase:  p.GroupNode(0).LastElectionMillis(),
	}
	if w != nil {
		fmt.Fprintf(w, "Election detect+elect=%v election-phase=%.2fms\n",
			res.DetectAndElect.Round(time.Millisecond), res.ElectionPhase)
	}
	return res, nil
}

// --- ablation: per-burst vs per-request time consensus ---

// AblationPerRequest compares default time bubbling against W_timeout=~0
// (every lull becomes a bubble request — approximating dOS-style
// per-request admission consensus, §1/§8).
func AblationPerRequest(s Scale, w io.Writer) (perBurst, perRequest Cell, err error) {
	spec := Specs()[0] // Apache: bursty connect/send/close per request
	cfgDefault := ClusterConfig(crane.ModeCrane)
	perBurst, err = RunCell(spec, cfgDefault, false, s)
	if err != nil {
		return
	}
	cfgPerReq := ClusterConfig(crane.ModeCrane)
	cfgPerReq.Wtimeout = time.Microsecond // every lull becomes a bubble request
	perRequest, err = RunCell(spec, cfgPerReq, false, s)
	if err != nil {
		return
	}
	if w != nil {
		rel := 0.0
		if perBurst.Summary.Median > 0 {
			rel = float64(perRequest.Summary.Median) / float64(perBurst.Summary.Median)
		}
		fmt.Fprintf(w, "Ablation per-burst=%v per-request=%v (%.2fx), bubbles %d vs %d\n",
			perBurst.Summary.Median.Round(time.Microsecond),
			perRequest.Summary.Median.Round(time.Microsecond), rel,
			perBurst.Bubbles, perRequest.Bubbles)
	}
	return
}
