package crane

import (
	"fmt"
	"sync"

	"crane/internal/obs"
	"crane/internal/obs/flight"
)

// auditor is the leader half of the live divergence audit: backups
// piggyback their freshest flight-recorder marks (per-lane rolling chain
// hashes, which fold in every output the lane sent) on AcceptOK replies,
// and the auditor cross-checks each against the leader's own mark at the
// same consumed position. A mismatch means the replicas' schedules or
// replies split at or before that position — raised as a structured
// alarm and the crane_divergence_detected counter while the run is still
// going, instead of surfacing as an output diff at teardown.
//
// Samples can arrive before the leader has reached the sampled position
// (a backup briefly ahead after a view change): those are stashed,
// bounded per replica, and re-checked on the next batch from the same
// peer. A sample inside the leader's retained mark window that matches no
// mark is itself divergence evidence (mark positions are deterministic),
// reported as "mark-misaligned" rather than silently dropped.
type auditor struct {
	r *Replica

	mu      sync.Mutex
	pending map[int][]flight.AuditSample // per-peer samples ahead of our marks
	alarms  []DivergenceAlarm

	checked  *obs.Counter
	diverged *obs.Counter
}

// maxPendingAudit bounds the per-peer stash of not-yet-checkable samples.
const maxPendingAudit = 64

// maxAlarms bounds the retained alarm list (the counter keeps the total).
const maxAlarms = 16

// DivergenceAlarm is one detected cross-replica divergence.
type DivergenceAlarm struct {
	Replica int    // peer whose sample mismatched
	Lane    int32  // journal lane
	Pos     uint64 // consumed position
	Want    uint64 // this replica's chain at Pos
	Got     uint64 // the peer's
	Kind    string // "chain-mismatch" or "mark-misaligned"
}

// String renders the alarm for logs and test failures.
func (a DivergenceAlarm) String() string {
	return fmt.Sprintf("divergence[%s]: replica %d lane %d pos %d: want %016x got %016x",
		a.Kind, a.Replica, a.Lane, a.Pos, a.Want, a.Got)
}

func newAuditor(r *Replica) *auditor {
	return &auditor{
		r:       r,
		pending: make(map[int][]flight.AuditSample),
		checked: r.ro.reg.Counter("crane_audit_checked_total",
			"cross-replica flight-recorder audit samples verified"),
		diverged: r.ro.reg.Counter("crane_divergence_detected",
			"cross-replica divergences detected by the live journal audit"),
	}
}

// onAudit receives one peer's piggybacked samples. Called from the paxos
// event loop; everything here is bounded and lock-cheap.
func (au *auditor) onAudit(from int, samples []flight.AuditSample) {
	au.mu.Lock()
	defer au.mu.Unlock()
	// Re-check anything stashed from this peer first: our marks may have
	// caught up since.
	queue := append(au.pending[from], samples...)
	delete(au.pending, from)
	var still []flight.AuditSample
	for _, s := range queue {
		switch au.checkLocked(from, s) {
		case auditAhead:
			if !au.stale(s) && len(still) < maxPendingAudit {
				still = append(still, s)
			}
		}
	}
	if len(still) > 0 {
		au.pending[from] = still
	}
}

type auditOutcome int

const (
	auditDone  auditOutcome = iota // checked (matched or alarmed)
	auditAhead                     // peer is ahead of our marks; retry later
)

func (au *auditor) checkLocked(from int, s flight.AuditSample) auditOutcome {
	j := au.r.flt.Lane(int(s.Lane))
	if j == nil {
		return auditDone
	}
	m, ok, within := j.MarkAt(s.Pos)
	if ok {
		au.checked.Inc()
		if m.Chain != s.Chain {
			au.alarmLocked(DivergenceAlarm{Replica: from, Lane: s.Lane, Pos: s.Pos,
				Want: m.Chain, Got: s.Chain, Kind: "chain-mismatch"})
		}
		return auditDone
	}
	if within {
		// The position falls inside our retained mark window but no mark
		// was recorded there: the replicas marked different positions,
		// which deterministic streams cannot do.
		au.checked.Inc()
		au.alarmLocked(DivergenceAlarm{Replica: from, Lane: s.Lane, Pos: s.Pos,
			Got: s.Chain, Kind: "mark-misaligned"})
		return auditDone
	}
	return auditAhead
}

// stale reports whether the sample's position has already scrolled out of
// this replica's retained mark window — unverifiable forever, so the
// auditor drops it instead of stashing it.
func (au *auditor) stale(s flight.AuditSample) bool {
	j := au.r.flt.Lane(int(s.Lane))
	if j == nil {
		return false
	}
	newest, has := j.NewestMark()
	return has && s.Pos < newest.Pos
}

func (au *auditor) alarmLocked(a DivergenceAlarm) {
	au.diverged.Inc()
	if len(au.alarms) < maxAlarms {
		au.alarms = append(au.alarms, a)
	}
}

// Alarms snapshots the retained divergence alarms.
func (au *auditor) Alarms() []DivergenceAlarm {
	if au == nil {
		return nil
	}
	au.mu.Lock()
	defer au.mu.Unlock()
	return append([]DivergenceAlarm(nil), au.alarms...)
}

// checkedCount returns how many samples have been verified.
func (au *auditor) checkedCount() uint64 {
	if au == nil {
		return 0
	}
	return au.checked.Value()
}
