package main

import (
	"time"

	"crane/internal/papi"
)

// killResult is one primary kill under open-loop load.
type killResult struct {
	phase      *phaseResult
	killed     int       // replica id, -1 when the kill failed
	at         time.Time // when the harness pulled the plug
	failoverMs float64   // first completion of a request sent after the kill, from the kill
	electionMs float64   // the new primary's own account of its election
	catchupMs  float64   // restart to caught up (mysql_failover only)
}

// runKill paces open-loop load for dur and fails the primary killAt (plus
// a seeded offset of up to 30 ms) into it. Requests keep falling due
// during the outage; one cut by the kill is retried on the next primary
// and still timed from its original due time.
func runKill(d *deployment, st stream, phase string, dur, killAt time.Duration, seed int64) *killResult {
	kr := &killResult{killed: -1}
	killAt += killOffset(seed)
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(killAt)
		p, ok := d.primaryNow()
		if !ok {
			return
		}
		// Mark first: no client may be sent to the replica once it is down.
		d.markDead(p.ID(), true)
		kr.at = now()
		// Network first, power a moment later: the replica's WAL must not
		// close under a commit still in flight (see deployment.stop).
		d.cluster.PartitionReplica(p.ID())
		time.Sleep(2 * time.Millisecond)
		d.cluster.FailReplica(p.ID())
		kr.killed = p.ID()
	}()
	kr.phase = runLoad(d, st, phase, dur, d.w.rate, true)
	<-killed
	if kr.killed < 0 {
		return kr
	}
	for i := range kr.phase.spans {
		sp := &kr.phase.spans[i]
		if sp.Err != "" || sp.Dial < kr.at.UnixNano() {
			continue
		}
		if ms := float64(sp.Done-kr.at.UnixNano()) / 1e6; kr.failoverMs == 0 || ms < kr.failoverMs {
			kr.failoverMs = ms
		}
	}
	if p, ok := d.primaryNow(); ok {
		for g := 0; g < p.Groups(); g++ {
			if ms := p.GroupNode(g).LastElectionMillis(); ms > kr.electionMs {
				kr.electionMs = ms
			}
		}
	}
	return kr
}

// killOffset is the seeded jitter, under 30 ms, added to a kill's time so
// that it does not always land on the same request.
func killOffset(seed int64) time.Duration {
	return time.Duration(papi.NewRand(seed^0x6b696c6c).Intn(30)) * time.Millisecond
}

// restartAndCatchUp rebuilds the killed replica from its WAL and times how
// long it takes to replay and catch up with the survivors.
func (rep *report) restartAndCatchUp(d *deployment, kr *killResult) {
	if kr.killed < 0 {
		return
	}
	start := now()
	if err := d.cluster.RestartReplica(kr.killed); err != nil {
		rep.fail("restart replica %d: %v", kr.killed, err)
		return
	}
	d.markDead(kr.killed, false)
	p, err := d.primary(now().Add(5 * time.Second))
	if err != nil {
		rep.fail("after restart: %v", err)
		return
	}
	deadline := now().Add(20 * time.Second)
	for d.cluster.Replica(kr.killed).Outputs().Len() < p.Outputs().Len() {
		if now().After(deadline) {
			rep.fail("replica %d did not catch up: %d of %d outputs", kr.killed,
				d.cluster.Replica(kr.killed).Outputs().Len(), p.Outputs().Len())
			return
		}
		time.Sleep(time.Millisecond)
	}
	kr.catchupMs = float64(since(start)) / 1e6
}
