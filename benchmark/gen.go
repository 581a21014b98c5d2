package main

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"crane/internal/papi"
)

// request is one generated request: the bytes written on a fresh
// connection, how to tell the response is whole, and what it must say.
type request struct {
	payload []byte
	// complete reports whether acc holds the whole response by the
	// protocol's own framing (the client does not wait for the close).
	complete func(acc []byte) bool
	// check verifies the response content against the generator's model.
	check func(resp []byte) error
	// acked, when set, records that the server acknowledged the request.
	acked func()
}

// stream generates a workload's requests. Each client slot walks its own
// sequence, a pure function of (seed, slot, position), so equal seeds give
// equal streams whatever the timing of the run.
type stream interface {
	next(slot int) *request
}

// preparer is a stream whose server needs state before the first request.
type preparer interface {
	prepare(d *deployment) error
}

// finalChecker is a stream that can verify server state after the run,
// once every request has completed.
type finalChecker interface {
	finalCheck(d *deployment) error
}

// corruptor is a stream whose expectations can be deliberately broken, to
// prove the content checks fail the run.
type corruptor interface {
	corrupt()
}

// slotSeed derives a slot's generator seed.
func slotSeed(seed int64, slot int) int64 {
	return seed*1000003 + int64(slot)*7919 + 17
}

// ---- MySQL ----

// mysqlStream issues point SELECTs and UPDATEs against the SysBench table
// and keeps a model of it: immutable columns are checked exactly, and the
// k column against the writes the generator has issued.
type mysqlStream struct {
	updatePct int
	rngs      [slots]*papi.Rand
	pos       [slots]int

	mu    sync.Mutex
	clock int64 // orders issues and acks of UPDATEs
	rows  []rowModel
}

type rowModel struct {
	k0     int
	c, pad string
	writes []kWrite
}

// kWrite is one UPDATE of a row's k column: issued at logical time issue,
// acknowledged at ack (0 while unacknowledged).
type kWrite struct {
	value      int
	issue, ack int64
}

func newMySQLStream(seed int64, updatePct int) *mysqlStream {
	s := &mysqlStream{updatePct: updatePct, rows: make([]rowModel, mysqlRows)}
	for i := range s.rngs {
		s.rngs[i] = papi.NewRand(slotSeed(seed, i))
	}
	rng := papi.NewRand(seed ^ 0x5bd1e995)
	for i := range s.rows {
		s.rows[i] = rowModel{
			k0:  rng.Intn(mysqlRows) + 1,
			c:   fmt.Sprintf("c-%08d", i+1),
			pad: fmt.Sprintf("pad-%016x", rng.Int63()),
		}
	}
	return s
}

func (s *mysqlStream) corrupt() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.rows {
		s.rows[i].pad = "pad-corrupted"
	}
}

// prepare creates and fills the table over one connection, one statement
// per round trip, as sysbench's prepare phase does.
func (s *mysqlStream) prepare(d *deployment) error {
	stmts := make([]string, 0, len(s.rows)+1)
	stmts = append(stmts, "CREATE TABLE sbtest (id k c pad)")
	for i, r := range s.rows {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO sbtest VALUES %d %d '%s' '%s'", i+1, r.k0, r.c, r.pad))
	}
	return d.session("prep:0", stmts, "OK")
}

func (s *mysqlStream) next(slot int) *request {
	rng := s.rngs[slot]
	j := s.pos[slot]
	s.pos[slot]++
	id := rng.Intn(mysqlRows) + 1
	if rng.Intn(100) < s.updatePct {
		return s.update(id, 1000+j*slots+slot)
	}
	return &request{
		payload:  []byte(fmt.Sprintf("SELECT * FROM sbtest WHERE id = %d\nQUIT\n", id)),
		complete: mysqlComplete,
		check:    func(resp []byte) error { return s.checkSelect(id, resp) },
	}
}

func (s *mysqlStream) update(id, value int) *request {
	s.mu.Lock()
	s.clock++
	row := &s.rows[id-1]
	row.writes = append(row.writes, kWrite{value: value, issue: s.clock})
	w := len(row.writes) - 1
	s.mu.Unlock()
	return &request{
		payload:  []byte(fmt.Sprintf("UPDATE sbtest SET k = %d WHERE id = %d\nQUIT\n", value, id)),
		complete: mysqlComplete,
		check: func(resp []byte) error {
			if string(resp) != "OK 1\n" {
				return fmt.Errorf("UPDATE id=%d: got %q, want \"OK 1\\n\"", id, clip(resp))
			}
			return nil
		},
		acked: func() {
			s.mu.Lock()
			s.clock++
			s.rows[id-1].writes[w].ack = s.clock
			s.mu.Unlock()
		},
	}
}

// mysqlComplete frames a response: "ROWS n" is followed by n row lines,
// anything else is a single line.
func mysqlComplete(acc []byte) bool {
	nl := bytes.IndexByte(acc, '\n')
	if nl < 0 {
		return false
	}
	if rest, ok := bytes.CutPrefix(acc[:nl], []byte("ROWS ")); ok {
		n, err := strconv.Atoi(string(rest))
		if err != nil {
			return true // malformed: let check reject it
		}
		return bytes.Count(acc, []byte("\n")) >= n+1
	}
	return true
}

func (s *mysqlStream) checkSelect(id int, resp []byte) error {
	lines := strings.Split(strings.TrimSuffix(string(resp), "\n"), "\n")
	if len(lines) != 2 || lines[0] != "ROWS 1" {
		return fmt.Errorf("SELECT id=%d: got %q", id, clip(resp))
	}
	return s.checkRow(id, lines[1], false)
}

// checkRow verifies one "id|k|c|pad" row. During the run (final false) k
// may be the initial value or any value issued so far; after it (final
// true) k must be a write no acknowledged later write supersedes — the
// "no acknowledged write lost" rule.
func (s *mysqlStream) checkRow(id int, line string, final bool) error {
	f := strings.Split(line, "|")
	s.mu.Lock()
	defer s.mu.Unlock()
	row := &s.rows[id-1]
	if len(f) != 4 || f[0] != strconv.Itoa(id) || f[2] != row.c || f[3] != row.pad {
		return fmt.Errorf("row %d: got %q, want %d|k|%s|%s", id, line, id, row.c, row.pad)
	}
	k, err := strconv.Atoi(f[1])
	if err != nil {
		return fmt.Errorf("row %d: k=%q", id, f[1])
	}
	if k == row.k0 {
		if final {
			for _, w := range row.writes {
				if w.ack != 0 {
					return fmt.Errorf("row %d: holds initial k=%d but UPDATE k=%d was acknowledged", id, k, w.value)
				}
			}
		}
		return nil
	}
	for _, w := range row.writes {
		if w.value != k {
			continue
		}
		if final && w.ack != 0 {
			for _, later := range row.writes {
				if later.ack != 0 && later.issue > w.ack {
					return fmt.Errorf("row %d: holds k=%d but the later acknowledged UPDATE k=%d is lost", id, k, later.value)
				}
			}
		}
		return nil
	}
	return fmt.Errorf("row %d: k=%d was never written", id, k)
}

// finalCheck reads the whole table back through the replicated path and
// verifies every row, so every acknowledged UPDATE is shown readable.
func (s *mysqlStream) finalCheck(d *deployment) error {
	resp, err := d.roundTrip("final:0", []byte("SELECT * FROM sbtest\nQUIT\n"), mysqlComplete)
	if err != nil {
		return fmt.Errorf("final read-back: %w", err)
	}
	lines := strings.Split(strings.TrimSuffix(string(resp), "\n"), "\n")
	if len(lines) != mysqlRows+1 || lines[0] != fmt.Sprintf("ROWS %d", mysqlRows) {
		return fmt.Errorf("final read-back: %d lines, first %q", len(lines), lines[0])
	}
	for i, ln := range lines[1:] {
		if err := s.checkRow(i+1, ln, true); err != nil {
			return fmt.Errorf("final read-back: %w", err)
		}
	}
	return nil
}

// ---- HTTP ----

// httpComplete frames an HTTP/1.0 response by its Content-Length.
func httpComplete(acc []byte) bool {
	_, _, ok := splitHTTP(acc)
	return ok
}

// splitHTTP parses a whole response into status and body; ok is false
// until the header and Content-Length bytes of body have arrived.
func splitHTTP(acc []byte) (status int, body []byte, ok bool) {
	end := bytes.Index(acc, []byte("\r\n\r\n"))
	if end < 0 {
		return 0, nil, false
	}
	lines := strings.Split(string(acc[:end]), "\r\n")
	if parts := strings.SplitN(lines[0], " ", 3); len(parts) >= 2 {
		status, _ = strconv.Atoi(parts[1])
	}
	want := -1
	for _, ln := range lines[1:] {
		if v, found := strings.CutPrefix(strings.ToLower(ln), "content-length:"); found {
			want, _ = strconv.Atoi(strings.TrimSpace(v))
		}
	}
	body = acc[end+4:]
	if want < 0 || len(body) < want {
		return status, nil, false
	}
	return status, body[:want], true
}

func checkHTTP(resp []byte, wantStatus int, verify func(body []byte) error) error {
	status, body, ok := splitHTTP(resp)
	if !ok {
		return errors.New("incomplete HTTP response")
	}
	if status != wantStatus {
		return fmt.Errorf("status %d, want %d", status, wantStatus)
	}
	return verify(body)
}

// apacheStream fetches the one PHP page the paper's ApacheBench workload
// fetches. The page is a pure function of its path, so every body must
// name the page, carry one line per interpreter chunk, and close.
type apacheStream struct{ corrupted bool }

const (
	apachePage           = "/page0.php"
	mongooseScript       = "/app0.php"
	mongooseScriptChunks = 6
)

func (a *apacheStream) corrupt() { a.corrupted = true }

func (a *apacheStream) next(int) *request {
	marker := "<!-- interpreted www" + apachePage + " -->"
	if a.corrupted {
		marker = "<!-- corrupted -->"
	}
	return &request{
		payload:  []byte("GET " + apachePage + " HTTP/1.0\r\nHost: crane\r\n\r\n"),
		complete: httpComplete,
		check: func(resp []byte) error {
			return checkHTTP(resp, 200, func(body []byte) error {
				s := string(body)
				if !strings.HasPrefix(s, "<html><body>"+marker+"\n") ||
					!strings.HasSuffix(s, "</body></html>\n") ||
					strings.Count(s, "<p>chunk ") != 8 {
					return fmt.Errorf("GET %s: body %q", apachePage, clip(body))
				}
				return nil
			})
		},
	}
}

// mongooseStream cycles, per slot, through a 4 KB PUT of /up<slot>.html, a
// GET of the same file whose body must be what was just put
// (read-your-write through the replicated path), and a GET of a script
// page. The script's few milliseconds of server CPU are what keep the
// deployment out of the bistable idle regime of the static pair alone
// (see README.md, "Why the third workload runs a script").
type mongooseStream struct {
	rngs      [slots]*papi.Rand
	pos       [slots]int
	last      [slots][]byte
	corrupted bool
}

func newMongooseStream(seed int64) *mongooseStream {
	s := &mongooseStream{}
	for i := range s.rngs {
		s.rngs[i] = papi.NewRand(slotSeed(seed, i))
	}
	return s
}

func (s *mongooseStream) corrupt() { s.corrupted = true }

func (s *mongooseStream) next(slot int) *request {
	j := s.pos[slot]
	s.pos[slot]++
	path := fmt.Sprintf("/up%d.html", slot)
	switch j % 3 {
	case 0:
		body := make([]byte, mongooseBodyLen)
		rng := s.rngs[slot]
		for i := 0; i < len(body); i += 8 {
			v := rng.Uint64()
			for b := 0; b < 8; b++ {
				body[i+b] = "0123456789abcdef"[(v>>(4*b))&15]
			}
		}
		s.last[slot] = body
		var req bytes.Buffer
		fmt.Fprintf(&req, "PUT %s HTTP/1.0\r\nHost: crane\r\nContent-Length: %d\r\n\r\n", path, len(body))
		req.Write(body)
		return &request{
			payload:  req.Bytes(),
			complete: httpComplete,
			check: func(resp []byte) error {
				return checkHTTP(resp, 201, func([]byte) error { return nil })
			},
		}
	case 2:
		marker := "<!-- mongoose script www" + mongooseScript + " -->\n"
		if s.corrupted {
			marker = "<!-- corrupted -->\n"
		}
		return &request{
			payload:  []byte("GET " + mongooseScript + " HTTP/1.0\r\nHost: crane\r\n\r\n"),
			complete: httpComplete,
			check: func(resp []byte) error {
				return checkHTTP(resp, 200, func(body []byte) error {
					if s := string(body); !strings.HasPrefix(s, marker) || strings.Count(s, "<li>") != mongooseScriptChunks {
						return fmt.Errorf("GET %s: body %q", mongooseScript, clip(body))
					}
					return nil
				})
			},
		}
	}
	want := s.last[slot]
	if s.corrupted {
		want = append([]byte("x"), want[1:]...)
	}
	return &request{
		payload:  []byte("GET " + path + " HTTP/1.0\r\nHost: crane\r\n\r\n"),
		complete: httpComplete,
		check: func(resp []byte) error {
			return checkHTTP(resp, 200, func(body []byte) error {
				if !bytes.Equal(body, want) {
					return fmt.Errorf("GET %s: body %q, want %q", path, clip(body), clip(want))
				}
				return nil
			})
		},
	}
}

func clip(b []byte) string {
	if len(b) > 60 {
		return string(b[:60]) + "..."
	}
	return string(b)
}
