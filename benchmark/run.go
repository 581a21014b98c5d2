package main

import (
	"fmt"
	"time"

	"crane/internal/crane"
)

// plan splits a run's measured seconds into phases. A steady-state
// workload runs one long trial; mysql_failover runs several short ones,
// each on a fresh cluster, because one cluster stops serving after
// repeated kill+restart cycles (ROADMAP item 4).
type plan struct {
	baseline time.Duration // closed loop on an un-replicated node
	untraced time.Duration // -trace only: closed loop with tracing off
	trials   int
	warmup   time.Duration
	closed   time.Duration
	open     time.Duration // paced open loop without a fault (steady-state workloads)
	kill     time.Duration // paced open loop with the primary killed at killAt (mysql_failover)
	killAt   time.Duration
	control  time.Duration // -trace only: each single-layer control
}

func makePlan(w workload, o options) plan {
	s := func(share float64) time.Duration {
		return time.Duration(share * o.seconds * float64(time.Second))
	}
	traced := o.traced
	var p plan
	switch {
	case w.failover && !traced:
		p = plan{baseline: s(0.09), trials: 5, warmup: s(0.012), closed: s(0.04), kill: s(0.10)}
	case w.failover:
		p = plan{untraced: s(0.08), trials: 3, warmup: s(0.012), closed: s(0.04), kill: s(0.10), control: s(0.06)}
	case !traced:
		p = plan{baseline: s(0.10), trials: 1, warmup: s(0.06), closed: s(0.38), open: s(0.46)}
	default:
		p = plan{untraced: s(0.14), trials: 1, warmup: s(0.05), closed: s(0.22), open: s(0.32), control: s(0.06)}
	}
	if o.smoke && p.trials > 1 {
		p.trials = 1
	}
	p.killAt = p.kill / 2
	return p
}

// setup_s is the median over the set-ups of one run: every trial's, plus
// extra ones in an end-to-end run that has fewer than minSetups trials,
// repeated while they stay within setupBudget.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = time.Second
)

// total is the planned wall-clock length, for the watchdog.
func (p plan) total() time.Duration {
	perTrial := p.warmup + p.closed + p.open + p.kill
	return p.baseline + p.untraced + time.Duration(p.trials)*perTrial + 3*p.control
}

// runWorkload runs every phase of one workload and the checks.
func runWorkload(w workload, o options) (*report, error) {
	rep := newReport(w, o)
	pl := makePlan(w, o)

	if pl.baseline > 0 {
		res, err := rep.phaseOn(crane.ModeNondet, "baseline", pl.baseline)
		if err != nil {
			return nil, err
		}
		rep.baseline = res
	}
	if pl.untraced > 0 {
		res, err := rep.phaseOn(crane.ModeCrane, "untraced", pl.untraced)
		if err != nil {
			return nil, err
		}
		rep.untraced = res
	}
	// Extra set-ups, timed and torn down, so setup_s (end-to-end runs
	// only) is a median of several even when the workload needs only one
	// cluster: at least minSetups in all, and more while they are cheap.
	spent := time.Duration(0)
	for n := pl.trials; !o.traced && n < maxSetups && (n < minSetups || spent < setupBudget); n++ {
		start := now()
		d, err := deploy(w, crane.ModeCrane, o.seed, false, w.newStream(o.seed))
		if err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, d.setup.Seconds())
		d.stop()
		spent += since(start)
	}
	for t := 0; t < pl.trials; t++ {
		if err := rep.trial(t, pl); err != nil {
			return nil, err
		}
	}
	if o.traced {
		for _, c := range []struct {
			mode crane.Mode
			name string
		}{{crane.ModeNondet, "nondet"}, {crane.ModeParrotOnly, "parrot_only"}, {crane.ModePaxosOnly, "paxos_only"}} {
			res, err := rep.phaseOn(c.mode, c.name, pl.control)
			if err != nil {
				return nil, err
			}
			rep.controls[c.name] = res
		}
		rep.runDrivers()
	}
	return rep, nil
}

// trial deploys a fresh cluster and runs warm-up, closed loop, then either
// the paced open loop or (mysql_failover) a primary kill under open-loop
// load with restart and catch-up, and the consistency checks.
func (rep *report) trial(t int, pl plan) error {
	w, o := rep.w, rep.o
	firstPhase := len(rep.phases)
	// Each trial gets its own seed so the kill lands on different requests.
	seed := o.seed + int64(t)*7919
	st := w.newStream(seed)
	d, err := deploy(w, crane.ModeCrane, seed, o.traced, st)
	if err != nil {
		return err
	}
	defer d.stop()
	if o.corrupt {
		st.(corruptor).corrupt() // after prepare, so the server holds the true state
	}
	rep.setups = append(rep.setups, d.setup.Seconds())
	tag := func(name string) string {
		if pl.trials > 1 {
			return fmt.Sprintf("%s%d", name, t)
		}
		return name
	}
	rep.add(runClosed(d, st, tag("warmup"), pl.warmup))

	var tap *layerTap
	if o.traced {
		tap = tapLayers(d)
	}
	// With several trials each one's short closed phase is one window.
	measured := []*phaseResult{rep.add(runLoad(d, st, tag("closed"), pl.closed, 0, pl.trials > 1))}
	rep.closed = append(rep.closed, measured[0])
	if pl.open > 0 {
		measured = append(measured, rep.add(runOpen(d, st, tag("open"), pl.open, w.rate)))
		rep.open = append(rep.open, measured[1])
	}
	if tap != nil {
		tap.finish(rep, measured...)
	}
	// All replicas are alive and idle: check them, and (traced) take the
	// checkpoint a backup would ship.
	rep.checkConsistency(d, tag("steady"), true)
	if o.traced && w.groups == 1 {
		// With several groups a checkpoint needs the cross-group merge
		// fully drained, which live bubble traffic rarely allows.
		rep.checkpointLayer(d)
	}
	if fc, ok := st.(finalChecker); ok && pl.kill == 0 {
		if err := fc.finalCheck(d); err != nil {
			rep.fail("%s: %v", tag("final"), err)
		}
	}
	if pl.kill > 0 {
		kr := runKill(d, st, tag("kill"), pl.kill, pl.killAt, seed)
		rep.add(kr.phase)
		if kr.failoverMs == 0 {
			rep.fail("%s: no request sent after the kill completed", tag("kill"))
		}
		// The outage is part of what this workload's users see.
		rep.open = append(rep.open, kr.phase)
		// Every acknowledged write must be readable from the survivors.
		if err := st.(finalChecker).finalCheck(d); err != nil {
			rep.fail("%s: %v", tag("final"), err)
		}
		rep.checkConsistency(d, tag("survivors"), false)
		if o.traced {
			// Restart and catch-up feed a layer metric only, so the
			// gated end-to-end runs stay free of them.
			rep.restartAndCatchUp(d, kr)
			rep.checkConsistency(d, tag("rejoined"), false)
			rep.killLayer(d, kr)
		}
	}
	if o.traced {
		d.stop()
		reqs := 0
		for _, p := range rep.phases[firstPhase:] {
			reqs += p.completed()
		}
		rep.walAfterStop(d, reqs)
	}
	return nil
}

// phaseOn deploys the workload under mode, runs one closed-loop phase on
// a fresh stream, and tears the deployment down.
func (rep *report) phaseOn(mode crane.Mode, name string, dur time.Duration) (*phaseResult, error) {
	st := rep.w.newStream(rep.o.seed)
	d, err := deploy(rep.w, mode, rep.o.seed, false, st)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	// An unmeasured lead-in fills lazy state (worker threads parked, first
	// bubble rounds) before timing.
	rep.add(runClosed(d, st, name+"-lead", dur/8))
	res := rep.add(runClosed(d, st, name, dur))
	if res.completed() == 0 {
		return nil, fmt.Errorf("%s: no request completed under %s", name, mode)
	}
	return res, nil
}
