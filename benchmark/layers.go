package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"crane/internal/checkpoint"
	"crane/internal/crane"
	"crane/internal/obs"
	"crane/internal/seq"
	"crane/internal/wal"
)

// The per-layer numbers of a traced run are read from outside the program:
// counters the replicas already export (Replica.Obs, Tracer, SeqStats,
// SpecStats, GroupStats, Metrics) and the generator's own spans. A metric
// observed in several trials reports the median of its observations.

func (rep *report) observe(name string, v float64) {
	rep.samples[name] = append(rep.samples[name], v)
}

// scrape reads every counter, gauge, and histogram sum/count of a registry
// through its Prometheus rendering — the one read path that covers callback
// gauges too.
func scrape(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// grouped sums an instrument over the plain name and its per-group
// renamings (paxos_group1_commits_total, ...).
func grouped(s map[string]float64, name string, groups int) float64 {
	total := s[name]
	for g := 0; g < groups; g++ {
		total += s[obs.GroupInstrumentName(name, g)]
	}
	return total
}

// layerTap brackets the measured phases of one traced trial: counter
// snapshots on the primary before and after, and a sampler of how far the
// backups' output logs trail the primary's.
type layerTap struct {
	primary *crane.Replica
	before  map[string]float64
	m0      crane.Metrics
	seq0    seq.Stats // summed over lanes, unlike m0.Seq

	stop   chan struct{}
	wg     sync.WaitGroup
	lagMax int
}

func tapLayers(d *deployment) *layerTap {
	t := &layerTap{stop: make(chan struct{})}
	p, ok := d.primaryNow()
	if !ok {
		return t
	}
	t.primary = p
	t.before = scrape(p.Obs())
	t.m0 = p.Metrics()
	t.seq0 = p.SeqStats()
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				lead := p.Outputs().Len()
				for _, id := range d.live() {
					if lag := lead - d.cluster.Replica(id).Outputs().Len(); lag > t.lagMax {
						t.lagMax = lag
					}
				}
			}
		}
	}()
	return t
}

// finish reads the layer counters over the phases run since tapLayers.
func (t *layerTap) finish(rep *report, phases ...*phaseResult) {
	close(t.stop)
	t.wg.Wait()
	p := t.primary
	if p == nil {
		rep.fail("layer tap: no primary when the measured phases began")
		return
	}
	reqs := 0.0
	for _, ph := range phases {
		reqs += float64(ph.completed())
	}
	if reqs == 0 {
		return
	}
	after := scrape(p.Obs())
	m1 := p.Metrics()
	groups := p.Groups()
	delta := func(name string) float64 {
		return grouped(after, name, groups) - grouped(t.before, name, groups)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	// crane: stage transitions from the primary's lifecycle tracer.
	for _, row := range p.Tracer().Breakdown() {
		name := fmt.Sprintf("crane.%s_to_%s_ms_p50", row.From, row.To)
		if _, ok := perLayerUnits[name]; ok {
			rep.observe(name, float64(row.WallP50)/1e6)
		}
	}
	rep.observe("crane.conn_admit_to_output_ms_p50", connAdmitToOutputP50(p.Tracer().Events()))
	seq1 := p.SeqStats()
	calls := float64(seq1.ClientCalls - t.seq0.ClientCalls)
	bubbles := float64(seq1.Bubbles - t.seq0.Bubbles)
	rep.observe("crane.entries_per_req", calls/reqs)
	rep.observe("crane.bubble_ratio", ratio(bubbles, bubbles+calls))
	rep.observe("crane.burst_entries_mean", ratio(delta("proxy_burst_entries_sum"), delta("proxy_burst_entries_count")))
	rep.observe("crane.rejects", delta("proxy_rejected_total"))
	ss := p.SpecStats()
	rep.observe("crane.spec_hit_ratio", ratio(float64(ss.Hits), float64(ss.Hits+ss.Aborts)))
	rep.observe("crane.spec_rollbacks", float64(ss.Rollbacks))
	rep.observe("crane.backup_output_lag_max", float64(t.lagMax))

	// paxos: what one commit costs on the wire.
	rep.observe("paxos.msgs_per_commit", ratio(delta("transport_msgs_sent_total"), delta("paxos_commits_total")))
	rep.observe("paxos.entries_per_round", ratio(delta("paxos_batch_entries_sum"), delta("paxos_batch_entries_count")))

	// wal: flushes per request.
	rep.observe("wal.fsyncs_per_req", delta("wal_fsyncs_total")/reqs)

	// seq: queue wait and merge stalls.
	if h := p.Obs().FindHistogram("seq_queue_wait_seconds"); h != nil {
		rep.observe("seq.queue_wait_ms_p50", float64(h.Quantile(0.50))/1e6)
		rep.observe("seq.queue_wait_ms_mean", float64(h.Mean())/1e6)
	}
	gs := p.GroupStats()
	rep.observe("seq.merge_stalls_per_kentry", 1000*ratio(float64(gs.Stalls), float64(gs.Emitted)))

	// dmt: the busiest lane's turn-wait histogram (lanes record apart).
	var busiest *obs.Histogram
	for _, h := range p.Obs().Histograms() {
		s := h.Snapshot()
		if strings.HasPrefix(s.Name, "dmt_") && strings.HasSuffix(s.Name, "turn_wait_seconds") &&
			(busiest == nil || s.Count > busiest.Count()) {
			busiest = h
		}
	}
	if busiest != nil {
		rep.observe("dmt.turn_wait_us_p50", float64(busiest.Quantile(0.50))/1e3)
		rep.observe("dmt.turn_wait_us_p99", float64(busiest.Quantile(0.99))/1e3)
		rep.observe("dmt.turn_wait_us_mean", float64(busiest.Mean())/1e3)
	}
	rep.observe("dmt.token_passes_per_req", float64(m1.TokenPasses-t.m0.TokenPasses)/reqs)

	rep.observe("obs.trace_dropped", float64(p.Tracer().Dropped()))
}

// connAdmitToOutputP50 is, per connection, first admission to last output
// on the primary: the part of a request the program can see.
func connAdmitToOutputP50(events []obs.SpanEvent) float64 {
	type window struct{ admit, output int64 }
	conns := map[uint64]*window{}
	for _, ev := range events {
		if ev.Conn == 0 {
			continue
		}
		w := conns[ev.Conn]
		if w == nil {
			w = &window{}
			conns[ev.Conn] = w
		}
		switch ev.Stage {
		case obs.StageAdmit:
			if w.admit == 0 {
				w.admit = ev.Wall
			}
		case obs.StageOutput:
			w.output = ev.Wall
		}
	}
	var ms []float64
	for _, w := range conns {
		if w.admit != 0 && w.output > w.admit {
			ms = append(ms, float64(w.output-w.admit)/1e6)
		}
	}
	return median(ms)
}

// killLayer reads what a kill leaves behind: the new primary's election,
// the view it reached, the restarted replica's catch-up, and the worst
// latency any request due around the outage saw.
func (rep *report) killLayer(d *deployment, kr *killResult) {
	rep.observe("client.failover_ms", kr.failoverMs)
	rep.observe("paxos.election_ms", kr.electionMs)
	rep.observe("crane.catchup_ms", kr.catchupMs)
	if p, ok := d.primaryNow(); ok {
		views := uint64(0)
		for g := 0; g < p.Groups(); g++ {
			if v, _ := p.GroupNode(g).View(); v > views {
				views = v
			}
		}
		rep.observe("paxos.view_changes", float64(views))
	}
	var outage []float64
	for i := range kr.phase.spans {
		if sp := &kr.phase.spans[i]; sp.Err == "" && sp.Done > kr.at.UnixNano() {
			outage = append(outage, sp.latencyMs())
		}
	}
	rep.observe("client.outage_latency_max_ms", maxOf(outage))
}

// checkpointLayer takes the checkpoint a backup would ship (§5.2) on the
// quiescent cluster and reports its cost and size.
func (rep *report) checkpointLayer(d *deployment) {
	cp := checkpoint.New(checkpoint.Options{Backoff: time.Millisecond})
	start := now()
	ck, _, err := d.cluster.CheckpointBackup(cp)
	if err != nil {
		rep.fail("checkpoint: %v", err)
		return
	}
	took := since(start)
	wire, err := ck.Encode()
	if err != nil {
		rep.fail("checkpoint encode: %v", err)
		return
	}
	rep.observe("checkpoint.take_ms", float64(took)/1e6)
	rep.observe("checkpoint.bytes", float64(len(wire)))
}

// walAfterStop measures the stopped deployment's log on disk: bytes per
// request and how long a cold wal.Open of replica 0's log takes.
func (rep *report) walAfterStop(d *deployment, reqs int) {
	if d.walDir == "" || reqs == 0 {
		return
	}
	dir := filepath.Join(d.walDir, "replica0")
	if d.w.groups > 1 {
		dir = filepath.Join(dir, "g0")
	}
	var size int64
	err := filepath.Walk(filepath.Join(d.walDir, "replica0"), func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			size += info.Size()
		}
		return err
	})
	if err != nil {
		rep.fail("wal size: %v", err)
		return
	}
	rep.observe("wal.bytes_per_req", float64(size)/float64(reqs))
	start := now()
	log, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		rep.fail("wal recover: %v", err)
		return
	}
	rep.observe("wal.recover_ms", float64(since(start))/1e6)
	if err := log.Close(); err != nil {
		rep.fail("wal close: %v", err)
	}
}

// clientLayer derives the client-layer metrics from the generator's spans
// of the traced trials, and the run-wide control and process readings.
func (rep *report) clientLayer() {
	measured := append(append([]*phaseResult(nil), rep.closed...), rep.open...)
	p50 := func(f func(*span) float64) float64 { return median(pooled(measured, f)) }
	dial := p50(func(s *span) float64 { return float64(s.Dialed-s.Dial) / 1e6 })
	rep.observe("client.dial_ms_p50", dial)
	rep.observe("client.ttfb_ms_p50", p50(func(s *span) float64 { return float64(s.First-s.Written) / 1e6 }))
	rep.observe("client.body_ms_p50", p50(func(s *span) float64 { return float64(s.Done-s.First) / 1e6 }))
	service := p50(func(s *span) float64 { return float64(s.Done-s.Dial) / 1e6 })

	lat := pooled(rep.open, (*span).latencyMs)
	tail, pct := tailPercentile(lat)
	rep.observe("client.latency_tail_ms", tail)
	rep.observe("client.latency_tail_pct", pct)
	rep.observe("client.latency_max_ms", maxOf(lat))
	rep.observe("client.lateness_max_ms", maxOf(pooled(rep.open, (*span).latenessMs)))
	misses, n, retries, sat := 0, 0, 0, 0.0
	for _, p := range rep.open {
		for i := range p.spans {
			n++
			if sp := &p.spans[i]; sp.Err != "" || sp.latencyMs() > rep.w.sloMs {
				misses++
			}
		}
		if saturated(p, rep.w.rate) {
			sat = 1
		}
	}
	for _, p := range rep.phases {
		for i := range p.spans {
			retries += p.spans[i].Retries
		}
	}
	if n > 0 {
		rep.observe("client.slo_miss_pct", 100*float64(misses)/float64(n))
	}
	rep.observe("client.retries", float64(retries))
	rep.observe("client.saturated", sat)
	attempted, failed := rep.totals()
	rep.observe("client.error_rate", float64(failed)/float64(attempted))
	// What neither the dial nor the program's own admit-to-output window
	// explains: reported, not asserted.
	if inside := median(rep.samples["crane.conn_admit_to_output_ms_p50"]); inside > 0 {
		rep.observe("client.unattributed_ms_p50", service-dial-inside)
	}

	ctl := func(name string) float64 {
		if p := rep.controls[name]; p != nil {
			return median(p.sorted((*span).latencyMs))
		}
		return 0
	}
	rep.observe("apps.nondet_ms_p50", ctl("nondet"))
	if p := rep.controls["nondet"]; p != nil {
		rep.observe("apps.nondet_rps", p.throughput())
	}
	rep.observe("dmt.parrot_only_ms_p50", ctl("parrot_only"))
	rep.observe("paxos.paxos_only_ms_p50", ctl("paxos_only"))

	if rep.untraced != nil {
		var traced []float64
		for _, p := range rep.closed {
			r, _ := p.windowRates()
			traced = append(traced, r...)
		}
		if un, _ := rep.untraced.windowRates(); median(un) > 0 {
			rep.observe("obs.trace_overhead_pct", 100*(1-median(traced)/median(un)))
		}
	}
	rep.observe("crane.divergence_alarms", float64(rep.divergenceAlarms))

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rep.observe("process.peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KB
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.observe("process.gc_pause_ms", float64(ms.PauseTotalNs)/1e6)
}

// perLayerUnits indexes perLayerMetrics by name.
var perLayerUnits = func() map[string]string {
	m := map[string]string{}
	for _, d := range perLayerMetrics {
		m[d.Name] = d.Unit
	}
	return m
}()
