package clients

import (
	"errors"
	"strings"
	"testing"
	"time"

	"crane/internal/simnet"
)

func TestSummaryStatistics(t *testing.T) {
	lats := []time.Duration{5 * time.Millisecond, 1 * time.Millisecond,
		3 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	s := summarize(lats, 2, 100*time.Millisecond)
	if s.Requests != 7 || s.Errors != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Median != 3*time.Millisecond {
		t.Fatalf("median = %v", s.Median)
	}
	if s.Mean != 3*time.Millisecond {
		t.Fatalf("mean = %v", s.Mean)
	}
	if tp := s.Throughput(); tp < 49 || tp > 51 {
		t.Fatalf("throughput = %f", tp)
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := summarize(nil, 3, time.Second)
	if s.Requests != 3 || s.Median != 0 {
		t.Fatalf("summary = %+v", s)
	}
	if (Summary{}).Throughput() != 0 {
		t.Fatal("zero-total throughput not 0")
	}
}

// miniHTTP answers one canned HTTP response per connection.
func miniHTTP(t *testing.T, response string) (Dialer, func()) {
	t.Helper()
	net := simnet.New(simnet.Options{})
	l, err := net.Listen("srv:80")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c *simnet.Conn) {
				buf := make([]byte, 4096)
				c.SetReadDeadline(time.Now().Add(5 * time.Second))
				c.Read(buf)
				c.Write([]byte(response))
				c.Close()
			}(c)
		}
	}()
	dial := func(client string, port int) (*simnet.Conn, error) {
		return net.Dial(simnet.Addr(client), "srv:80")
	}
	return dial, func() { l.Close() }
}

func TestCurlParsesResponse(t *testing.T) {
	dial, stop := miniHTTP(t, "HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nhello")
	defer stop()
	status, body, err := Curl(dial, "c:1", 80, "GET", "/x", nil)
	if err != nil || status != 200 || string(body) != "hello" {
		t.Fatalf("Curl = %d, %q, %v", status, body, err)
	}
}

func TestCurlSendsBody(t *testing.T) {
	net := simnet.New(simnet.Options{})
	l, _ := net.Listen("srv:80")
	defer l.Close()
	reqCh := make(chan string, 1)
	go func() {
		c, _ := l.Accept()
		buf := make([]byte, 4096)
		var acc []byte
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		for !strings.Contains(string(acc), "BODYEND") {
			n, err := c.Read(buf)
			acc = append(acc, buf[:n]...)
			if err != nil {
				break
			}
		}
		reqCh <- string(acc)
		c.Write([]byte("HTTP/1.0 201 Created\r\nContent-Length: 0\r\n\r\n"))
		c.Close()
	}()
	dial := func(client string, port int) (*simnet.Conn, error) {
		return net.Dial(simnet.Addr(client), "srv:80")
	}
	status, _, err := Curl(dial, "c:1", 80, "PUT", "/f", []byte("payload BODYEND"))
	if err != nil || status != 201 {
		t.Fatalf("Curl = %d, %v", status, err)
	}
	raw := <-reqCh
	if !strings.Contains(raw, "PUT /f HTTP/1.0") ||
		!strings.Contains(raw, "Content-Length: 15") ||
		!strings.Contains(raw, "payload BODYEND") {
		t.Fatalf("raw request = %q", raw)
	}
}

func TestCurlMalformedStatus(t *testing.T) {
	dial, stop := miniHTTP(t, "NONSENSE\r\n\r\n")
	defer stop()
	if _, _, err := Curl(dial, "c:1", 80, "GET", "/", nil); err == nil {
		t.Fatal("malformed status accepted")
	}
}

func TestApacheBenchCountsErrors(t *testing.T) {
	dial, stop := miniHTTP(t, "HTTP/1.0 500 Oops\r\nContent-Length: 0\r\n\r\n")
	defer stop()
	sum := ApacheBench(dial, 80, "/", 2, 6)
	if sum.Errors != 6 {
		t.Fatalf("errors = %d, want 6 (500s count as errors)", sum.Errors)
	}
}

func TestApacheBenchHappyPath(t *testing.T) {
	dial, stop := miniHTTP(t, "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok")
	defer stop()
	sum := ApacheBench(dial, 80, "/", 3, 9)
	if sum.Errors != 0 || sum.Requests != 9 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Median <= 0 {
		t.Fatal("median not measured")
	}
}

func TestLineRequestStopsAtPattern(t *testing.T) {
	net := simnet.New(simnet.Options{})
	l, _ := net.Listen("srv:9")
	defer l.Close()
	go func() {
		c, _ := l.Accept()
		buf := make([]byte, 64)
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		c.Read(buf)
		c.Write([]byte("partial...\n"))
		time.Sleep(time.Millisecond)
		c.Write([]byte("SCAN SUMMARY: done\n"))
		// Deliberately leave the connection open: the client must stop
		// at the pattern, not wait for EOF.
	}()
	dial := func(client string, port int) (*simnet.Conn, error) {
		return net.Dial(simnet.Addr(client), "srv:9")
	}
	resp, err := lineRequest(dial, "c:1", 9, "SCAN x", "SCAN SUMMARY:")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp, "partial") || !strings.Contains(resp, "SCAN SUMMARY:") {
		t.Fatalf("resp = %q", resp)
	}
}

func TestDialerErrorsPropagate(t *testing.T) {
	bad := func(client string, port int) (*simnet.Conn, error) {
		return nil, simnet.ErrRefused
	}
	if _, _, err := Curl(bad, "c:1", 80, "GET", "/", nil); err == nil {
		t.Fatal("dial error swallowed")
	}
	if _, err := ClamdScan(bad, "c:1", 3310, "x"); err == nil {
		t.Fatal("dial error swallowed in ClamdScan")
	}
	if err := SysBenchPrepare(bad, "c:1", 3306, 1); err == nil {
		t.Fatal("dial error swallowed in SysBenchPrepare")
	}
}

// scriptedServer answers its i-th connection with serve(i, c) and reports
// each connection's client address on the returned channel.
func scriptedServer(t *testing.T, serve func(i int, c *simnet.Conn)) (Dialer, <-chan simnet.Addr) {
	t.Helper()
	net := simnet.New(simnet.Options{})
	l, err := net.Listen("srv:9")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	// Room for every connection a test makes, so Accept never waits on it.
	remotes := make(chan simnet.Addr, 16)
	go func() {
		for i := 0; ; i++ {
			c, err := l.Accept()
			if err != nil {
				return
			}
			remotes <- c.RemoteAddr()
			go serve(i, c)
		}
	}()
	dial := func(client string, port int) (*simnet.Conn, error) {
		return net.Dial(simnet.Addr(client), "srv:9")
	}
	return dial, remotes
}

// readLine reads one request line from the client.
func readLine(c *simnet.Conn) {
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var acc []byte
	buf := make([]byte, 64)
	for !UntilLine(acc) {
		n, err := c.Read(buf)
		acc = append(acc, buf[:n]...)
		if err != nil {
			return
		}
	}
}

// TestRequestRetriesRefusal: a connection closed with no reply byte (a
// backup's proxy) is retried on a fresh one, under a fresh client name.
func TestRequestRetriesRefusal(t *testing.T) {
	dial, remotes := scriptedServer(t, func(i int, c *simnet.Conn) {
		defer c.Close()
		if i > 0 {
			readLine(c)
			c.Write([]byte("OK\n"))
		}
	})
	resp, err := Request(dial, "c:1", 9, []byte("SET a 1\n"), UntilLine)
	if err != nil || string(resp) != "OK\n" {
		t.Fatalf("Request = %q, %v", resp, err)
	}
	if first, second := <-remotes, <-remotes; first != "c:1" || second == first {
		t.Fatalf("attempts dialed as %q then %q", first, second)
	}
}

// TestRequestFirstAttemptExactName: a request that is served at once
// dials as the client name it was given, nothing appended.
func TestRequestFirstAttemptExactName(t *testing.T) {
	dial, remotes := scriptedServer(t, func(i int, c *simnet.Conn) {
		defer c.Close()
		readLine(c)
		c.Write([]byte("OK\n"))
	})
	if _, err := Request(dial, "exact:7", 9, []byte("GET a\n"), UntilLine); err != nil {
		t.Fatal(err)
	}
	if got := <-remotes; got != "exact:7" {
		t.Fatalf("dialed as %q", got)
	}
}

// TestRequestReturnsPartialReply: once a reply byte has arrived the
// server may have executed the request, so a close before done holds
// returns what arrived and never re-sends.
func TestRequestReturnsPartialReply(t *testing.T) {
	dial, _ := scriptedServer(t, func(i int, c *simnet.Conn) {
		defer c.Close()
		readLine(c)
		c.Write([]byte("PART"))
	})
	dials := 0
	counted := func(client string, port int) (*simnet.Conn, error) {
		dials++
		return dial(client, port)
	}
	resp, err := Request(counted, "c:1", 9, []byte("SET a 1\n"), UntilLine)
	if err != nil || string(resp) != "PART" {
		t.Fatalf("Request = %q, %v", resp, err)
	}
	if dials != 1 {
		t.Fatalf("request sent on %d connections", dials)
	}
}

// TestRequestGivesUpWhenDialsFail: a Dialer that always fails is retried
// until Request's deadline, and then Request returns the dial error.
func TestRequestGivesUpWhenDialsFail(t *testing.T) {
	t.Parallel()
	dials := 0
	bad := func(client string, port int) (*simnet.Conn, error) {
		dials++
		return nil, simnet.ErrRefused
	}
	start := time.Now()
	_, err := Request(bad, "c:1", 9, []byte("x\n"), UntilLine)
	if !errors.Is(err, simnet.ErrRefused) {
		t.Fatalf("err = %v, want the dial error", err)
	}
	if took := time.Since(start); took < requestTimeout || took > requestTimeout+2*time.Second {
		t.Fatalf("gave up after %v, deadline %v", took, requestTimeout)
	}
	if dials < 2 {
		t.Fatalf("%d dials: a failed dial was not retried", dials)
	}
}

// TestDriversCountRefusalAsError: only Request retries; the §7 drivers
// make one attempt per request, so a refused connection is an error.
func TestDriversCountRefusalAsError(t *testing.T) {
	dial, _ := scriptedServer(t, func(i int, c *simnet.Conn) { c.Close() })
	if sum := ClamBench(dial, 9, "x", 2, 4); sum.Errors != 4 {
		t.Fatalf("ClamBench against a refusing server: %+v", sum)
	}
}

func TestUntilLine(t *testing.T) {
	if !UntilLine([]byte("x\n")) || UntilLine([]byte("x")) || UntilLine(nil) {
		t.Fatal("UntilLine broken")
	}
}
