package crane

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crane/internal/obs/flight"
	"crane/internal/seq"
	"crane/internal/trace"
)

// dumpJournal snapshots one replica's flight journal through the same
// JSONL path /journal serves, then parses it back.
func dumpJournal(t *testing.T, r *Replica) *flight.Dump {
	t.Helper()
	rec := r.FlightRecorder()
	if rec == nil {
		t.Fatalf("replica %d has no flight recorder", r.ID())
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatalf("dump journal: %v", err)
	}
	d, err := flight.ParseJournal(&buf)
	if err != nil {
		t.Fatalf("parse journal: %v", err)
	}
	return d
}

// currentPrimary polls until the cluster elects exactly one primary.
func currentPrimary(t *testing.T, c *Cluster) *Replica {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if p, err := c.Primary(); err == nil {
			return p
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no primary elected")
	return nil
}

// dumpJournalsForCI archives every replica's flight journal under
// $CRANE_JOURNAL_DIR/<label>/ when that variable is set (the CI
// consistency job sets it), so a failed run leaves the forensic evidence
// behind and crane-inspect can localize the divergence offline. The dump
// runs in a cleanup hook — after the test body, pass or fail.
func dumpJournalsForCI(t *testing.T, c *Cluster, label string) {
	t.Helper()
	dir := os.Getenv("CRANE_JOURNAL_DIR")
	if dir == "" {
		return
	}
	t.Cleanup(func() {
		sub := filepath.Join(dir, label)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Logf("journal dump dir: %v", err)
			return
		}
		for i := 0; i < c.Replicas(); i++ {
			rec := c.Replica(i).FlightRecorder()
			if rec == nil {
				continue
			}
			var buf bytes.Buffer
			if err := rec.WriteJSONL(&buf); err != nil {
				t.Logf("journal dump replica %d: %v", i, err)
				continue
			}
			path := filepath.Join(sub, fmt.Sprintf("replica%d.jsonl", i))
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Logf("journal dump replica %d: %v", i, err)
			}
		}
	})
}

// assertNoDivergenceAlarms fails the test if the live journal audit
// raised an alarm on any replica. Consistency tests call this so a
// determinism regression surfaces as a localized audit alarm, not just
// an output diff.
func assertNoDivergenceAlarms(t *testing.T, c *Cluster) {
	t.Helper()
	for i := 0; i < c.Replicas(); i++ {
		if alarms := c.Replica(i).DivergenceAlarms(); len(alarms) > 0 {
			t.Fatalf("replica %d raised divergence alarms: %v", i, alarms)
		}
	}
}

// TestFlightCleanRunAuditsAndAgrees: on a healthy run the journals of
// every replica agree on their whole comparable prefix, the leader
// verifies piggybacked audit samples, and no alarm fires.
func TestFlightCleanRunAuditsAndAgrees(t *testing.T) {
	c, err := StartCluster(testConfig(ModeCrane), newTestKV(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	dumpJournalsForCI(t, c, "flight-clean-run")
	for i := 0; i < 8; i++ {
		kvRequest(t, c, fmt.Sprintf("fc%d:1", i), fmt.Sprintf("SET key%d val%d", i%3, i))
	}
	if err := c.WaitOutputs(8, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitQuiescent(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if divs := trace.DiffAll(c.OutputLogs()); len(divs) != 0 {
		t.Fatalf("output divergence on clean run: %v", divs)
	}
	p := currentPrimary(t, c)
	for i := 0; i < c.Replicas(); i++ {
		r := c.Replica(i)
		if r.ID() == p.ID() {
			continue
		}
		a, b := dumpJournal(t, p), dumpJournal(t, r)
		if d := flight.FirstDivergence(a, b); d != nil {
			t.Fatalf("clean run journals diverge (replica %d vs %d): %+v", p.ID(), r.ID(), d)
		}
	}
	// The leader must actually have verified piggybacked samples — an
	// audit that never checks anything would also never alarm.
	deadline := time.Now().Add(10 * time.Second)
	for p.AuditChecked() == 0 && time.Now().Before(deadline) {
		kvRequest(t, c, "fcx:1", "GET key0")
		time.Sleep(10 * time.Millisecond)
	}
	if n := p.AuditChecked(); n == 0 {
		t.Fatal("leader verified no audit samples")
	}
	assertNoDivergenceAlarms(t, c)
}

// TestFlightSeededDivergence seeds a real divergence — one backup's
// delivery order is mangled so a committed SEND is reordered past the
// next bubble or cross-connection SEND, exactly the class of bug the
// recorder exists to catch — and asserts both detection paths work:
// the leader's live audit raises an alarm while the run is still going,
// and offline journal comparison localizes the exact first divergent
// entry.
func TestFlightSeededDivergence(t *testing.T) {
	cfg := testConfig(ModeCrane)
	cfg.Speculation = false
	c, err := StartCluster(cfg, newTestKV(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	p := currentPrimary(t, c)
	var backup *Replica
	for i := 0; i < c.Replicas(); i++ {
		if r := c.Replica(i); r.ID() != p.ID() {
			backup = r
			break
		}
	}

	// The mangle hook holds one committed SEND back and releases it after
	// the next entry that can safely jump ahead of it: a bubble, or a
	// SEND on a different connection. Anything else releases the held
	// entry in original order (no divergence) and the hook re-arms, so
	// delivery can never wedge behind the hook.
	var held *seq.Entry // touched only by the delivery goroutine
	var swapped atomic.Bool
	backup.SetMangleDeliver(func(e *seq.Entry) []*seq.Entry {
		if swapped.Load() {
			return []*seq.Entry{e}
		}
		if held != nil {
			h := held
			held = nil
			if e.Kind == seq.KindBubble || (e.Kind == seq.KindSend && e.Conn != h.Conn) {
				swapped.Store(true)
				return []*seq.Entry{e, h}
			}
			return []*seq.Entry{h, e}
		}
		if e.Kind == seq.KindSend {
			held = e
			return nil
		}
		return []*seq.Entry{e}
	})

	for i := 0; i < 100 && !swapped.Load(); i++ {
		kvRequest(t, c, fmt.Sprintf("sd%d:1", i), fmt.Sprintf("SET s%d v%d", i, i))
		time.Sleep(2 * time.Millisecond)
	}
	if !swapped.Load() {
		t.Fatal("mangle hook never found a reorderable pair")
	}
	backup.SetMangleDeliver(nil)

	// Post-divergence traffic so marks recorded after the split ship to
	// the leader; the live audit must notice without any teardown help.
	var alarms []DivergenceAlarm
	deadline := time.Now().Add(15 * time.Second)
	for i := 0; len(alarms) == 0 && time.Now().Before(deadline); i++ {
		kvRequest(t, c, fmt.Sprintf("sdp%d:1", i), fmt.Sprintf("SET p%d v%d", i, i))
		alarms = p.DivergenceAlarms()
		time.Sleep(5 * time.Millisecond)
	}
	if len(alarms) == 0 {
		t.Fatal("live audit raised no alarm after seeded divergence")
	}
	found := false
	for _, a := range alarms {
		if a.Replica == backup.ID() {
			found = true
		}
	}
	if !found {
		t.Fatalf("alarms do not implicate the mangled replica %d: %v", backup.ID(), alarms)
	}
	if err := c.WaitQuiescent(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Offline forensics: the journal dumps localize the exact first
	// divergent entry, the same flow crane-inspect runs on two /journal
	// dumps.
	a, b := dumpJournal(t, p), dumpJournal(t, backup)
	d := flight.FirstDivergence(a, b)
	if d == nil {
		t.Fatal("journal comparison found no divergence")
	}
	if !d.Exact {
		t.Fatalf("divergence not localized to an exact entry: %+v", d)
	}
	if d.A == nil || d.B == nil || d.A.Chain == d.B.Chain {
		t.Fatalf("divergent entries not captured: %+v", d)
	}
	var rep bytes.Buffer
	flight.Report(&rep, a, b, d, 5)
	out := rep.String()
	if !strings.Contains(out, ">>") {
		t.Fatalf("report does not point at the divergent entry:\n%s", out)
	}
}

// TestFlightAuditSurvivesLeaderKill: killing the leader mid-audit must
// not wedge or false-alarm the audit — the new leader picks up
// verification of piggybacked samples across the view change.
func TestFlightAuditSurvivesLeaderKill(t *testing.T) {
	c, err := StartCluster(testConfig(ModeCrane), newTestKV(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 0; i < 4; i++ {
		kvRequest(t, c, fmt.Sprintf("lk%d:1", i), fmt.Sprintf("SET a%d v%d", i, i))
	}
	oldID, err := c.FailPrimary()
	if err != nil {
		t.Fatal(err)
	}
	// A new primary emerges and keeps serving.
	if got := kvRequest(t, c, "lkx:1", "GET a0"); !strings.HasPrefix(got, "VALUE") {
		t.Fatalf("GET a0 after leader kill = %q", got)
	}
	np := currentPrimary(t, c)
	if np.ID() == oldID {
		t.Fatalf("old leader %d still primary", oldID)
	}
	// Drive traffic until the NEW leader has verified samples.
	deadline := time.Now().Add(15 * time.Second)
	for i := 0; np.AuditChecked() == 0 && time.Now().Before(deadline); i++ {
		kvRequest(t, c, fmt.Sprintf("lkp%d:1", i), fmt.Sprintf("SET b%d v%d", i, i))
		time.Sleep(5 * time.Millisecond)
	}
	if np.AuditChecked() == 0 {
		t.Fatal("new leader verified no audit samples after view change")
	}
	assertNoDivergenceAlarms(t, c)
}

// TestFlightCorruptedJournalAlarmsNotCrashes: a corrupted journal
// segment on one backup (a bogus event injected into its lane chain)
// must surface as a divergence alarm at the leader while the cluster
// keeps serving — an alarm, not a crash.
func TestFlightCorruptedJournalAlarmsNotCrashes(t *testing.T) {
	c, err := StartCluster(testConfig(ModeCrane), newTestKV(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 0; i < 4; i++ {
		kvRequest(t, c, fmt.Sprintf("cj%d:1", i), fmt.Sprintf("SET c%d v%d", i, i))
	}
	p := currentPrimary(t, c)
	var backup *Replica
	for i := 0; i < c.Replicas(); i++ {
		if r := c.Replica(i); r.ID() != p.ID() {
			backup = r
			break
		}
	}
	// Corrupt the backup's lane-0 chain: one event the other replicas
	// never recorded. Emit serializes under the journal lock, so the
	// injection is race-safe against the live delivery goroutines.
	backup.FlightRecorder().Lane(0).Emit(flight.EvTick, 0, flight.PosUnchanged, 0xdead, 0xbeef)

	var alarms []DivergenceAlarm
	deadline := time.Now().Add(15 * time.Second)
	for i := 0; len(alarms) == 0 && time.Now().Before(deadline); i++ {
		got := kvRequest(t, c, fmt.Sprintf("cjp%d:1", i), fmt.Sprintf("SET d%d v%d", i, i))
		if got != "OK" {
			t.Fatalf("cluster stopped serving after journal corruption: %q", got)
		}
		alarms = p.DivergenceAlarms()
		time.Sleep(5 * time.Millisecond)
	}
	if len(alarms) == 0 {
		t.Fatal("corrupted journal raised no alarm")
	}
	for _, a := range alarms {
		if a.Replica != backup.ID() {
			t.Fatalf("alarm implicates wrong replica: %v", a)
		}
	}
	// Still serving after the alarm.
	if got := kvRequest(t, c, "cjz:1", "GET c0"); !strings.HasPrefix(got, "VALUE") {
		t.Fatalf("cluster unhealthy after alarm: %q", got)
	}
}
