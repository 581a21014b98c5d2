// Package httpkit is a minimal HTTP/1.0 implementation shared by the
// Apache-like and Mongoose-like servers: request parsing over the papi
// socket API and response serialization. It supports the method set the
// paper's workloads exercise (GET/PUT/DELETE with bodies via
// Content-Length).
package httpkit

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"crane/internal/papi"
)

// Request is a parsed HTTP request.
type Request struct {
	Method  string
	Path    string
	Proto   string
	Headers map[string]string
	Body    []byte
}

// ErrMalformed reports an unparseable request.
var ErrMalformed = errors.New("httpkit: malformed request")

// Reader incrementally parses requests from a connection.
type Reader struct {
	c   papi.Conn
	t   papi.T
	acc []byte
	buf []byte
}

// NewReader wraps a connection for request parsing.
func NewReader(t papi.T, c papi.Conn) *Reader {
	return &Reader{c: c, t: t, buf: make([]byte, 4096)}
}

// fill reads more bytes from the connection into the accumulator.
func (r *Reader) fill() error {
	n, err := r.c.Recv(r.t, r.buf)
	if n > 0 {
		r.acc = append(r.acc, r.buf[:n]...)
	}
	return err
}

// Next reads and parses the next request; io.EOF (wrapped) when the client
// closed between requests.
func (r *Reader) Next() (*Request, error) {
	// Read until the header terminator.
	var headerEnd int
	for {
		if i := bytes.Index(r.acc, []byte("\r\n\r\n")); i >= 0 {
			headerEnd = i
			break
		}
		if err := r.fill(); err != nil {
			return nil, err
		}
	}
	head := string(r.acc[:headerEnd])
	rest := r.acc[headerEnd+4:]

	lines := strings.Split(head, "\r\n")
	if len(lines) == 0 {
		return nil, ErrMalformed
	}
	first := strings.SplitN(lines[0], " ", 3)
	if len(first) != 3 {
		return nil, ErrMalformed
	}
	req := &Request{
		Method:  first[0],
		Path:    first[1],
		Proto:   first[2],
		Headers: make(map[string]string, len(lines)-1),
	}
	for _, ln := range lines[1:] {
		if j := strings.Index(ln, ":"); j > 0 {
			req.Headers[strings.ToLower(strings.TrimSpace(ln[:j]))] = strings.TrimSpace(ln[j+1:])
		}
	}
	want := 0
	if cl, ok := req.Headers["content-length"]; ok {
		n, err := strconv.Atoi(cl)
		if err != nil || n < 0 {
			return nil, ErrMalformed
		}
		want = n
	}
	r.acc = rest
	for len(r.acc) < want {
		if err := r.fill(); err != nil {
			return nil, err
		}
	}
	req.Body = append([]byte(nil), r.acc[:want]...)
	r.acc = r.acc[want:]
	return req, nil
}

// Response is an HTTP response under construction.
type Response struct {
	Status  int
	Reason  string
	Headers []string
	Body    []byte
}

// StatusText maps the status codes the servers emit.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 201:
		return "Created"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 500:
		return "Internal Server Error"
	default:
		return "Status"
	}
}

// Write serializes and sends the response. withDate adds a Date header
// from t.Now. The paper's consistency comparison tolerates it ("consistent
// except physical times in the responded HTTP headers", §7.2); here it is
// physical time only in the ModeNondet baseline, and DMT replicas agree on
// it.
func (resp *Response) Write(t papi.T, c papi.Conn, server string, withDate bool) error {
	reason := resp.Reason
	if reason == "" {
		reason = StatusText(resp.Status)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.0 %d %s\r\n", resp.Status, reason)
	fmt.Fprintf(&b, "Server: %s\r\n", server)
	if withDate {
		fmt.Fprintf(&b, "Date: %s\r\n", t.Now().UTC().Format(time.RFC1123))
	}
	for _, h := range resp.Headers {
		fmt.Fprintf(&b, "%s\r\n", h)
	}
	fmt.Fprintf(&b, "Content-Length: %d\r\n\r\n", len(resp.Body))
	b.Write(resp.Body)
	_, err := c.Send(t, b.Bytes())
	return err
}

// DateHeaderPattern is the normalizer pattern consistency checks use to
// mask the physical-time header.
const DateHeaderPattern = `Date: [^\r\n]+`
