package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

// payloads draws the first n requests of every slot.
func payloads(st stream, n int) [][]byte {
	var out [][]byte
	for slot := 0; slot < slots; slot++ {
		for i := 0; i < n; i++ {
			out = append(out, st.next(slot).payload)
		}
	}
	return out
}

func equalStreams(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Equal seeds must give equal request streams and different seeds
// different ones, for every workload whose content is seeded.
func TestStreamsFollowTheSeed(t *testing.T) {
	for _, w := range workloads() {
		a := payloads(w.newStream(7), 100)
		if b := payloads(w.newStream(7), 100); !equalStreams(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		if w.name == "apache_php" {
			continue // one fixed page: the seed moves only the network jitter
		}
		if c := payloads(w.newStream(8), 100); equalStreams(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

// The MySQL prepare data follows the seed too, so the replicas are fed a
// byte-identical table on equal seeds.
func TestMySQLModelFollowsTheSeed(t *testing.T) {
	a, b, c := newMySQLStream(3, 20), newMySQLStream(3, 20), newMySQLStream(4, 20)
	same, differs := true, false
	for i := range a.rows {
		if a.rows[i].k0 != b.rows[i].k0 || a.rows[i].pad != b.rows[i].pad {
			same = false
		}
		if a.rows[i].pad != c.rows[i].pad {
			differs = true
		}
	}
	if !same || !differs {
		t.Errorf("table model: equal seeds same=%v, different seeds differ=%v", same, differs)
	}
}

func TestMySQLMixIsRoughlyOneFifthUpdates(t *testing.T) {
	updates := 0
	for _, p := range payloads(newMySQLStream(1, 20), 1000) {
		if strings.HasPrefix(string(p), "UPDATE") {
			updates++
		}
	}
	if updates < 300 || updates > 500 {
		t.Errorf("%d of 2000 requests are UPDATEs, want about 400", updates)
	}
}

// The due-time schedule is a pure function of the index and the rate; the
// kill offset is a pure function of the seed.
func TestScheduleAndKillOffsetAreDeterministic(t *testing.T) {
	for i := 0; i < 1000; i++ {
		if got, want := dueOffset(i, 200), time.Duration(i)*5*time.Millisecond; got != want {
			t.Fatalf("request %d at 200 req/s due at %v, want %v", i, got, want)
		}
	}
	seen := map[time.Duration]bool{}
	for seed := int64(1); seed <= 20; seed++ {
		off := killOffset(seed)
		if off != killOffset(seed) {
			t.Fatalf("seed %d: kill offset not repeatable", seed)
		}
		if off < 0 || off >= 30*time.Millisecond {
			t.Fatalf("seed %d: kill offset %v outside [0, 30ms)", seed, off)
		}
		seen[off] = true
	}
	if len(seen) < 5 {
		t.Errorf("20 seeds gave only %d distinct kill offsets", len(seen))
	}
}

// The model must accept any interleaving the two slots can produce and
// reject a lost acknowledged write.
func TestMySQLRowCheck(t *testing.T) {
	s := newMySQLStream(1, 100)
	row := s.rows[4]
	line := func(k int) string { return "5|" + strconv.Itoa(k) + "|" + row.c + "|" + row.pad }
	if err := s.checkRow(5, line(row.k0), true); err != nil {
		t.Errorf("initial row rejected: %v", err)
	}
	first := s.update(5, 1001)
	second := s.update(5, 1002)
	if err := s.checkRow(5, line(1002), false); err != nil {
		t.Errorf("issued value rejected mid-run: %v", err)
	}
	first.acked()
	second.acked() // both in flight together: either may be last
	if err := s.checkRow(5, line(1001), true); err != nil {
		t.Errorf("concurrent writes: first value rejected: %v", err)
	}
	third := s.update(5, 1003) // issued after both were acknowledged
	third.acked()
	if err := s.checkRow(5, line(1001), true); err == nil {
		t.Error("row still holds k=1001 after a later acknowledged UPDATE: lost write accepted")
	}
	if err := s.checkRow(5, line(row.k0), true); err == nil {
		t.Error("row holds its initial k after acknowledged UPDATEs: lost write accepted")
	}
	if err := s.checkRow(5, line(1003), true); err != nil {
		t.Errorf("latest value rejected: %v", err)
	}
	if err := s.checkRow(5, line(4242), false); err == nil {
		t.Error("a value nobody wrote was accepted")
	}
	if err := s.checkRow(5, "5|"+strconv.Itoa(row.k0)+"|"+row.c+"|pad-wrong", false); err == nil {
		t.Error("a wrong pad column was accepted")
	}
}

func TestFraming(t *testing.T) {
	for _, c := range []struct {
		in   string
		want bool
	}{
		{"", false}, {"OK 1", false}, {"OK 1\n", true}, {"ERR no such table\n", true},
		{"ROWS 1\n", false}, {"ROWS 1\n5|1|c|p\n", true}, {"ROWS 2\n5|1|c|p\n", false}, {"ROWS 0\n", true},
	} {
		if got := mysqlComplete([]byte(c.in)); got != c.want {
			t.Errorf("mysqlComplete(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	full := "HTTP/1.0 200 OK\r\nServer: x\r\nContent-Length: 5\r\n\r\nhello"
	for cut := 0; cut < len(full); cut++ {
		if httpComplete([]byte(full[:cut])) {
			t.Errorf("httpComplete accepted a response cut at %d", cut)
		}
	}
	status, body, ok := splitHTTP([]byte(full))
	if !ok || status != 200 || string(body) != "hello" {
		t.Errorf("splitHTTP = %d %q %v", status, body, ok)
	}
}

// A corrupted expectation must fail the content check of every workload.
func TestCorruptedExpectationsFail(t *testing.T) {
	apache := &apacheStream{}
	good := "HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n"
	body := "<html><body><!-- interpreted www/page0.php -->\n" + strings.Repeat("<p>chunk 0: ab</p>\n", 8) + "</body></html>\n"
	resp := []byte(strings.Replace(good, "%d", strconv.Itoa(len(body)), 1) + body)
	if err := apache.next(0).check(resp); err != nil {
		t.Fatalf("good apache body rejected: %v", err)
	}
	apache.corrupt()
	if err := apache.next(0).check(resp); err == nil {
		t.Error("corrupted apache expectation still passes")
	}

	mg := newMongooseStream(1)
	put := mg.next(0)
	putBody := put.payload[bytes.Index(put.payload, []byte("\r\n\r\n"))+4:]
	if len(putBody) != mongooseBodyLen {
		t.Fatalf("PUT body is %d bytes, want %d", len(putBody), mongooseBodyLen)
	}
	getResp := append([]byte(strings.Replace(good, "%d", strconv.Itoa(len(putBody)), 1)), putBody...)
	if err := mg.next(0).check(getResp); err != nil {
		t.Fatalf("read-your-write rejected: %v", err)
	}
	script := "<!-- mongoose script www/app0.php -->\n" + strings.Repeat("<li>ab</li>\n", 6)
	scriptResp := []byte(strings.Replace(good, "%d", strconv.Itoa(len(script)), 1) + script)
	if err := mg.next(0).check(scriptResp); err != nil {
		t.Fatalf("good script page rejected: %v", err)
	}
	put = mg.next(0)
	putBody = put.payload[bytes.Index(put.payload, []byte("\r\n\r\n"))+4:]
	getResp = append([]byte(strings.Replace(good, "%d", strconv.Itoa(len(putBody)), 1)), putBody...)
	mg.corrupt()
	if err := mg.next(0).check(getResp); err == nil {
		t.Error("corrupted mongoose expectation still passes")
	}
	if err := mg.next(0).check(scriptResp); err == nil {
		t.Error("corrupted mongoose script expectation still passes")
	}

	my := newMySQLStream(1, 0)
	r := my.rows[0]
	line := "1|" + strconv.Itoa(r.k0) + "|" + r.c + "|" + r.pad
	if err := my.checkRow(1, line, false); err != nil {
		t.Fatalf("good mysql row rejected: %v", err)
	}
	my.corrupt()
	if err := my.checkRow(1, line, false); err == nil {
		t.Error("corrupted mysql expectation still passes")
	}
}
