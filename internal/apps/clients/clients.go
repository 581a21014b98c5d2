// Package clients implements the workload generators of §7: ApacheBench
// (concurrency-stress HTTP), curl (single requests, the §7.2 PUT/GET
// micro-benchmark), clamdscan, a MediaTomb transcode driver, and a
// SysBench-style SQL load. Each speaks the matching server's wire protocol
// over raw simulated sockets and reports response-time statistics
// ("we measured each workload's response time as it has direct impact on
// users ... ran 1K requests ... picked the median value"). The drivers
// make one attempt per request, so a refused connection counts as an
// error; Request is the client that retries across a leader change.
//
// The drivers run on the client side of the wire — outside the replicated
// state machine — so their concurrency and measurement clocks are exempt
// from the papi discipline; the exemptions are annotated where they occur.
// Anything that feeds bytes INTO the servers (the SysBench row data and
// query ids) must still be deterministic so repeated runs exercise
// identical request streams, hence papi.Rand rather than math/rand.
package clients

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"crane/internal/papi"
	"crane/internal/simnet"
)

// now is the harness measurement clock: request latencies and socket
// deadlines are observed client-side and never enter replicated state.
var now = time.Now //crane:nondet-ok harness-side measurement clock; client drivers run outside the replicated state machine

// Dialer connects a named client to a server port; implementations route
// to the cluster primary or directly to an un-replicated server.
type Dialer func(client string, port int) (*simnet.Conn, error)

// Summary aggregates a workload run.
type Summary struct {
	Requests int
	Errors   int
	Median   time.Duration
	P90      time.Duration
	Mean     time.Duration
	Total    time.Duration
}

// Throughput returns requests per second over the whole run.
func (s Summary) Throughput() float64 {
	if s.Total <= 0 {
		return 0
	}
	return float64(s.Requests-s.Errors) / s.Total.Seconds()
}

func summarize(latencies []time.Duration, errs int, total time.Duration) Summary {
	s := Summary{Requests: len(latencies) + errs, Errors: errs, Total: total}
	if len(latencies) == 0 {
		return s
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	s.Median = latencies[len(latencies)/2]
	s.P90 = latencies[len(latencies)*9/10]
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	s.Mean = sum / time.Duration(len(latencies))
	return s
}

// collector aggregates per-request outcomes across closed-loop workers
// and hands out request sequence numbers.
type collector struct {
	mu        sync.Mutex //crane:nondet-ok harness-side aggregation on the client of the wire, invisible to replicas
	latencies []time.Duration
	errs      int
	next      int
}

// claim reserves the next request sequence number, or reports exhaustion.
func (c *collector) claim(total int) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next >= total {
		return 0, false
	}
	seq := c.next
	c.next++
	return seq, true
}

func (c *collector) record(lat time.Duration, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if failed {
		c.errs++
	} else {
		c.latencies = append(c.latencies, lat)
	}
}

// runWorkers starts `concurrency` closed-loop workers and waits for all of
// them, mirroring ab's worker pool.
func runWorkers(concurrency int, worker func(w int)) {
	var wg sync.WaitGroup //crane:nondet-ok harness worker pool on the client of the wire, invisible to replicas
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		//crane:nondet-ok harness worker pool on the client of the wire, invisible to replicas
		go func(w int) {
			defer wg.Done()
			worker(w)
		}(w)
	}
	wg.Wait()
}

// exchange is one attempt of a request: it writes req on c and reads
// until done(reply) holds, the server closes, or the deadline passes. A
// close after some reply bytes ends the reply; a close before any returns
// io.EOF.
func exchange(c *simnet.Conn, req []byte, done func([]byte) bool, deadline time.Time) ([]byte, error) {
	if _, err := c.Write(req); err != nil {
		return nil, err
	}
	c.SetReadDeadline(deadline)
	var reply []byte
	buf := make([]byte, 4096)
	for {
		n, err := c.Read(buf)
		reply = append(reply, buf[:n]...)
		if done(reply) {
			return reply, nil
		}
		if err == io.EOF && len(reply) > 0 {
			return reply, nil
		}
		if err != nil {
			return reply, err
		}
	}
}

// UntilLine is a completion check for Request: the reply holds a full line.
func UntilLine(reply []byte) bool { return bytes.IndexByte(reply, '\n') >= 0 }

// requestTimeout bounds one Request, every retry included.
const requestTimeout = 10 * time.Second

// Request sends req over a connection from d and returns the reply read
// until done(reply) holds or the server closes. It is the client's one
// reconnect policy across a leader change (§2: clients send requests to
// the primary). A dial that fails, or a connection closed with no reply
// byte — a backup's proxy, or a primary deposed before it admitted the
// request (proxy.propose) — is retried on a fresh connection after 1 ms,
// then 2 ms, until 10 s have passed. The first attempt dials as client;
// retry k dials as client+".r<k>". A partial reply is returned as it is,
// never re-sent: the server may have executed the request already.
func Request(d Dialer, client string, port int, req []byte, done func([]byte) bool) ([]byte, error) {
	deadline := now().Add(requestTimeout)
	name := client
	for attempt := 1; ; attempt++ {
		c, err := d(name, port)
		if err == nil {
			var reply []byte
			reply, err = exchange(c, req, done, deadline)
			c.Close()
			if len(reply) > 0 {
				return reply, err
			}
		}
		if now().After(deadline) {
			return nil, fmt.Errorf("clients: %s: no reply in %v: %w", client, requestTimeout, err)
		}
		time.Sleep(time.Duration(min(attempt, 2)) * time.Millisecond)
		name = fmt.Sprintf("%s.r%d", client, attempt)
	}
}

// httpDone completes an HTTP response once its header and Content-Length
// bytes of body have arrived.
func httpDone(reply []byte) bool {
	head, body, ok := bytes.Cut(reply, []byte("\r\n\r\n"))
	return ok && len(body) >= contentLength(head)
}

func contentLength(head []byte) int {
	for _, ln := range strings.Split(string(head), "\r\n")[1:] {
		if v, ok := strings.CutPrefix(strings.ToLower(ln), "content-length:"); ok {
			n, _ := strconv.Atoi(strings.TrimSpace(v))
			return n
		}
	}
	return 0
}

// Curl performs one HTTP request over a fresh connection (the paper's curl
// usage: connect, send, wait, close — Fig. 3).
func Curl(d Dialer, client string, port int, method, path string, body []byte) (int, []byte, error) {
	c, err := d(client, port)
	if err != nil {
		return 0, nil, err
	}
	defer c.Close()
	var req bytes.Buffer
	fmt.Fprintf(&req, "%s %s HTTP/1.0\r\nHost: crane\r\n", method, path)
	if len(body) > 0 {
		fmt.Fprintf(&req, "Content-Length: %d\r\n", len(body))
	}
	req.WriteString("\r\n")
	req.Write(body)
	reply, err := exchange(c, req.Bytes(), httpDone, now().Add(30*time.Second))
	if err != nil {
		return 0, nil, err
	}
	head, rest, ok := bytes.Cut(reply, []byte("\r\n\r\n"))
	if !ok {
		return 0, nil, io.ErrUnexpectedEOF
	}
	statusLine, _, _ := strings.Cut(string(head), "\r\n")
	parts := strings.SplitN(statusLine, " ", 3)
	if len(parts) < 2 {
		return 0, nil, errors.New("clients: bad status line")
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, nil, fmt.Errorf("clients: bad status: %w", err)
	}
	return status, rest[:min(len(rest), contentLength(head))], nil
}

// ApacheBench issues `total` HTTP GETs of path with the given concurrency,
// one connection per request, mirroring ab's closed-loop workers.
func ApacheBench(d Dialer, port int, path string, concurrency, total int) Summary {
	if concurrency < 1 {
		concurrency = 1
	}
	start := now()
	var col collector
	runWorkers(concurrency, func(w int) {
		for {
			seq, ok := col.claim(total)
			if !ok {
				return
			}
			t0 := now()
			status, _, err := Curl(d, fmt.Sprintf("ab%d:%d", w, seq), port, "GET", path, nil)
			col.record(now().Sub(t0), err != nil || status >= 500 || status == 0)
		}
	})
	return summarize(col.latencies, col.errs, now().Sub(start))
}

// lineRequest sends one text line over one connection and reads until
// stop appears or the server closes. It does not retry: the §7 drivers
// count a refused connection as an error.
func lineRequest(d Dialer, client string, port int, line, stop string) (string, error) {
	c, err := d(client, port)
	if err != nil {
		return "", err
	}
	defer c.Close()
	until := []byte(stop)
	reply, err := exchange(c, []byte(line+"\n"), func(b []byte) bool {
		return bytes.Contains(b, until)
	}, now().Add(60*time.Second))
	return string(reply), err
}

// ClamdScan asks the daemon to scan path, returning the report. Like
// clamdscan, it terminates the session with END so the daemon closes the
// connection from its side.
func ClamdScan(d Dialer, client string, port int, path string) (string, error) {
	return lineRequest(d, client, port, "SCAN "+path+"\nEND", "SCAN SUMMARY:")
}

// ClamBench runs `total` scans with the given concurrency.
func ClamBench(d Dialer, port int, path string, concurrency, total int) Summary {
	return lineBench(d, port, "SCAN "+path+"\nEND", "SCAN SUMMARY:", concurrency, total, "cs")
}

// Transcode asks the media server to transcode name, ending the session
// with QUIT so the server closes first.
func Transcode(d Dialer, client string, port int, name string) (string, error) {
	return lineRequest(d, client, port, "TRANSCODE "+name+"\nQUIT", "DONE ")
}

// MediaBench runs `total` transcodes with the given concurrency
// (ApacheBench against MediaTomb's web interface in the paper).
func MediaBench(d Dialer, port int, name string, concurrency, total int) Summary {
	return lineBench(d, port, "TRANSCODE "+name+"\nQUIT", "DONE ", concurrency, total, "mb")
}

func lineBench(d Dialer, port int, line, stop string, concurrency, total int, prefix string) Summary {
	if concurrency < 1 {
		concurrency = 1
	}
	start := now()
	var col collector
	runWorkers(concurrency, func(w int) {
		for {
			seq, ok := col.claim(total)
			if !ok {
				return
			}
			t0 := now()
			resp, err := lineRequest(d, fmt.Sprintf("%s%d:%d", prefix, w, seq), port, line, stop)
			col.record(now().Sub(t0), err != nil || strings.Contains(resp, "ERROR"))
		}
	})
	return summarize(col.latencies, col.errs, now().Sub(start))
}

// SysBenchPrepare creates and populates the sbtest table over one
// connection (sysbench's prepare phase; this is what makes MySQL's
// filesystem checkpoint large, Table 2). Row content is drawn from
// papi.Rand so every run feeds the replicas a byte-identical table.
func SysBenchPrepare(d Dialer, client string, port int, rows int) error {
	c, err := d(client, port)
	if err != nil {
		return err
	}
	defer c.Close()
	send := func(stmt, want string) error {
		reply, err := exchange(c, []byte(stmt+"\n"), UntilLine, now().Add(60*time.Second))
		if err != nil {
			return fmt.Errorf("clients: sysbench prepare %q: %w", stmt, err)
		}
		if !strings.HasPrefix(string(reply), want) {
			return fmt.Errorf("clients: %q -> %q", stmt, bytes.TrimSpace(reply))
		}
		return nil
	}
	if err := send("CREATE TABLE sbtest (id k c pad)", "OK"); err != nil {
		return err
	}
	rng := papi.NewRand(1)
	for i := 1; i <= rows; i++ {
		stmt := fmt.Sprintf("INSERT INTO sbtest VALUES %d %d 'c-%08d' 'pad-%016x'",
			i, rng.Intn(rows)+1, i, rng.Int63())
		if err := send(stmt, "OK"); err != nil {
			return err
		}
	}
	// End the session server-side, as the mysql client's QUIT does.
	c.Write([]byte("QUIT\n"))
	return nil
}

// SysBench runs `total` random point SELECTs (sysbench oltp read-only's
// dominant statement) with the given concurrency, each over a fresh
// session like the other workloads. Query ids come from papi.Rand seeded
// per worker, so the request stream the replicas see is reproducible.
func SysBench(d Dialer, port int, tableRows, concurrency, total int) Summary {
	if concurrency < 1 {
		concurrency = 1
	}
	start := now()
	var col collector
	runWorkers(concurrency, func(w int) {
		rng := papi.NewRand(int64(w) + 7)
		for {
			seq, ok := col.claim(total)
			if !ok {
				return
			}
			id := rng.Intn(tableRows) + 1
			t0 := now()
			resp, err := lineRequest(d, fmt.Sprintf("sb%d:%d", w, seq), port,
				fmt.Sprintf("SELECT * FROM sbtest WHERE id = %d\nQUIT", id), "ROWS ")
			col.record(now().Sub(t0), err != nil || !strings.HasPrefix(resp, "ROWS"))
		}
	})
	return summarize(col.latencies, col.errs, now().Sub(start))
}
