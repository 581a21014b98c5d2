package crane

import (
	"errors"
	"io"
	"sync"
	"time"

	"crane/internal/papi"
	"crane/internal/seq"
)

// ErrKilled is returned from socket calls on a torn-down replica.
var ErrKilled = errors.New("crane: replica killed")

// --- deterministic sockets (full CRANE / plan II): paper Fig. 10/11 ---

// dmtSockets is the papi.SocketLayer for DMT-scheduled replicas: accept,
// poll, and recv return at deterministic logical times, driven by the
// Paxos sequence through the admission gate.
type dmtSockets struct{ r *Replica }

// Listen implements papi.SocketLayer.
func (s *dmtSockets) Listen(t papi.T, port int) (papi.Listener, error) {
	return &dmtListener{r: s.r, port: port}, nil
}

type dmtListener struct {
	r    *Replica
	port int
}

// Poll reports readiness without consuming: it blocks until the sequence
// head is a CONNECT for this port. The hint is ignored — readiness is a
// deterministic property of the sequence, not of physical time.
func (l *dmtListener) Poll(t papi.T, hint time.Duration) bool {
	th, ok := papi.DMTThreadOf(t)
	if !ok {
		return false
	}
	// Each lane's acceptor polls its own lane's sequence: CONNECTs are
	// routed to lanes by the program's conflict map, so lane L only ever
	// sees (and accepts) its own connections.
	sq := l.r.sqs[th.LaneID()]
	th.GetTurn()
	th.Admit()
	for {
		if h, ok := sq.Head(); ok && h.Kind == seq.KindConnect && h.Port == l.port {
			th.PutTurn()
			return true
		}
		th.WaitOn(acceptKey{l.port})
	}
}

// Accept consumes a CONNECT entry at a deterministic logical time.
func (l *dmtListener) Accept(t papi.T) (papi.Conn, error) {
	th, ok := papi.DMTThreadOf(t)
	if !ok {
		return nil, errors.New("crane: accept from non-DMT thread")
	}
	sq := l.r.sqs[th.LaneID()]
	th.GetTurn()
	th.Admit()
	for {
		if h, ok := sq.Head(); ok && h.Kind == seq.KindConnect && h.Port == l.port {
			connID, _, _ := sq.PopConnect()
			l.r.openConns.Add(1)
			th.PutTurn()
			return &dmtConn{r: l.r, id: connID, sq: sq}, nil
		}
		th.WaitOn(acceptKey{l.port})
	}
}

// Close is a no-op: the listener is virtual (the proxy owns the real one).
func (l *dmtListener) Close() error { return nil }

type dmtConn struct {
	r      *Replica
	id     uint64
	sq     *seq.Sequence // the connection's lane sequence
	eof    bool          // all client data consumed (guarded by the token)
	closed bool
}

// ID implements papi.Conn.
func (c *dmtConn) ID() uint64 { return c.id }

// Recv implements the recv() wrapper of Fig. 11: block on the connection
// key until the matching client send() reaches the sequence head, then
// dequeue by actual bytes received.
func (c *dmtConn) Recv(t papi.T, buf []byte) (int, error) {
	th, ok := papi.DMTThreadOf(t)
	if !ok {
		return 0, errors.New("crane: recv from non-DMT thread")
	}
	th.GetTurn()
	th.Admit()
	if c.eof || c.closed {
		th.PutTurn()
		return 0, io.EOF
	}
	for {
		n, eof := c.sq.ReadInto(c.id, buf)
		if eof {
			c.eof = true
			c.r.openConns.Add(-1)
			th.PutTurn()
			return 0, io.EOF
		}
		if n > 0 {
			th.PutTurn()
			return n, nil
		}
		th.WaitOn(recvKey{c.id})
	}
}

// Send is scheduled by DMT and forwarded through the proxy: the primary
// responds to the client; backups log and drop (§2.1).
func (c *dmtConn) Send(t papi.T, data []byte) (int, error) {
	th, ok := papi.DMTThreadOf(t)
	if !ok {
		return 0, errors.New("crane: send from non-DMT thread")
	}
	th.GetTurn()
	th.Admit()
	c.r.emitOutput(c.id, data)
	th.PutTurn()
	return len(data), nil
}

// Close releases the server side; any not-yet-consumed client calls for
// this connection will be discarded by the gate.
func (c *dmtConn) Close(t papi.T) error {
	th, ok := papi.DMTThreadOf(t)
	if !ok {
		return errors.New("crane: close from non-DMT thread")
	}
	th.GetTurn()
	th.Admit()
	if !c.closed {
		c.closed = true
		if !c.eof {
			c.r.openConns.Add(-1)
		}
		c.r.markConnClosed(c.id)
	}
	th.PutTurn()
	c.r.proxyCloseConn(c.id)
	return nil
}

// --- pump sockets (paxos-only mode): consensus-ordered admission with ---
// --- nondeterministic threading (Figure 14's "w/ Paxos only" bars)    ---

// pumpSockets delivers sequence entries to plain-goroutine servers in
// consensus order, using ordinary condition variables: input ordering
// without execution determinism.
type pumpSockets struct {
	r    *Replica
	sq   *seq.Sequence // the one sequence: paxos-only mode runs a single lane
	mu   sync.Mutex
	cond *sync.Cond
}

func newPumpSockets(r *Replica) *pumpSockets {
	p := &pumpSockets{r: r, sq: r.sqs[0]}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// wake is called by the replica whenever a new entry is enqueued.
func (p *pumpSockets) wake() { p.cond.Broadcast() }

// Listen implements papi.SocketLayer.
func (p *pumpSockets) Listen(t papi.T, port int) (papi.Listener, error) {
	return &pumpListener{p: p, port: port}, nil
}

// discardClosed drains head entries addressed to server-closed
// connections. Caller holds p.mu.
func (p *pumpSockets) discardClosed() {
	for {
		h, ok := p.sq.Head()
		if !ok {
			return
		}
		if (h.Kind == seq.KindSend || h.Kind == seq.KindClose) && p.r.connClosed(h.Conn) {
			p.sq.PopIfConn(h.Conn)
			continue
		}
		return
	}
}

type pumpListener struct {
	p    *pumpSockets
	port int
}

func (l *pumpListener) Poll(t papi.T, hint time.Duration) bool {
	deadline := time.Now().Add(hint)
	for {
		l.p.mu.Lock()
		l.p.discardClosed()
		h, ok := l.p.sq.Head()
		ready := ok && h.Kind == seq.KindConnect && h.Port == l.port
		l.p.mu.Unlock()
		if ready || l.p.r.killed() {
			return ready
		}
		if hint >= 0 && !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func (l *pumpListener) Accept(t papi.T) (papi.Conn, error) {
	l.p.mu.Lock()
	defer l.p.mu.Unlock()
	for {
		if l.p.r.killed() {
			return nil, ErrKilled
		}
		l.p.discardClosed()
		if h, ok := l.p.sq.Head(); ok && h.Kind == seq.KindConnect && h.Port == l.port {
			connID, _, _ := l.p.sq.PopConnect()
			l.p.r.openConns.Add(1)
			l.p.cond.Broadcast()
			return &pumpConn{p: l.p, id: connID}, nil
		}
		l.p.waitWithKick()
	}
}

// waitWithKick waits on the cond but arranges a periodic kick so Killed
// transitions and entries enqueued before the waiter parked are observed.
// Caller holds p.mu.
func (p *pumpSockets) waitWithKick() {
	t := time.AfterFunc(500*time.Microsecond, func() { p.cond.Broadcast() })
	p.cond.Wait()
	t.Stop()
}

func (l *pumpListener) Close() error { return nil }

type pumpConn struct {
	p      *pumpSockets
	id     uint64
	eof    bool
	closed bool
}

func (c *pumpConn) ID() uint64 { return c.id }

func (c *pumpConn) Recv(t papi.T, buf []byte) (int, error) {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	if c.eof || c.closed {
		return 0, io.EOF
	}
	for {
		if c.p.r.killed() {
			return 0, ErrKilled
		}
		n, eof := c.p.sq.ReadInto(c.id, buf)
		if eof {
			c.eof = true
			c.p.r.openConns.Add(-1)
			c.p.cond.Broadcast()
			return 0, io.EOF
		}
		if n > 0 {
			c.p.cond.Broadcast()
			return n, nil
		}
		c.p.discardClosed()
		c.p.waitWithKick()
	}
}

func (c *pumpConn) Send(t papi.T, data []byte) (int, error) {
	c.p.r.emitOutput(c.id, data)
	return len(data), nil
}

func (c *pumpConn) Close(t papi.T) error {
	c.p.mu.Lock()
	if !c.closed {
		c.closed = true
		if !c.eof {
			c.p.r.openConns.Add(-1)
		}
		c.p.r.markConnClosed(c.id)
		c.p.cond.Broadcast()
	}
	c.p.mu.Unlock()
	c.p.r.proxyCloseConn(c.id)
	return nil
}
