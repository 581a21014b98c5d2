package crane

import (
	"errors"
	"io"
	"sync"
	"time"

	"crane/internal/obs/flight"
	"crane/internal/papi"
	"crane/internal/seq"
	"crane/internal/trace"
)

// ErrKilled is returned from socket calls on a torn-down replica.
var ErrKilled = errors.New("crane: replica killed")

// inbound is one lane's filed input. The consumer of the lane's sequence —
// the gate (see gate.CheckAdmit for when), the pump in paxos-only mode — pops
// committed client calls off the head and files them here: a CONNECT into its
// port's backlog, a SEND or CLOSE into its connection's receive buffer. The
// socket wrappers wait on what is filed, never on the sequence head, so a
// call for a connection no worker serves yet cannot hold up the calls behind
// it ("Early Scheduling in Parallel SMR": bind a command to its consumer at
// ordering time). Guarded by the lane token (the pump's mutex in paxos-only
// mode).
type inbound struct {
	backlog map[int][]uint64      // port → filed connections not yet accepted, in sequence order
	conns   map[uint64]*connInbox // filed connections the server has neither closed nor read to EOF
}

// connInbox is one connection's receive buffer.
type connInbox struct {
	data [][]byte // filed SEND payloads not yet read; the first may be partly read
	eof  bool     // the client's CLOSE is filed
}

func newInbound() *inbound {
	return &inbound{backlog: make(map[int][]uint64), conns: make(map[uint64]*connInbox)}
}

// file takes e, a client call just popped off the lane's sequence. It reports
// false when the call was dropped because the server already closed its
// connection: nothing would ever read it.
func (in *inbound) file(r *Replica, e *seq.Entry) bool {
	if e.Kind == seq.KindConnect {
		in.backlog[e.Port] = append(in.backlog[e.Port], e.Conn)
		in.conns[e.Conn] = &connInbox{}
		r.openConns.Add(1) // open from filing on: a checkpoint must not lose it
		return true
	}
	box := in.conns[e.Conn]
	if box == nil {
		return false
	}
	if e.Kind == seq.KindClose {
		box.eof = true
	} else if len(e.Data) > 0 {
		box.data = append(box.data, e.Data)
	}
	return true
}

// accept takes the oldest filed connection on port.
func (in *inbound) accept(port int) (uint64, bool) {
	q := in.backlog[port]
	if len(q) == 0 {
		return 0, false
	}
	in.backlog[port] = q[1:]
	if len(q) == 1 {
		delete(in.backlog, port)
	}
	return q[0], true
}

// recv copies filed bytes of conn into b. eof is true, with n == 0, once the
// client's CLOSE is filed and every byte before it read; the connection's
// buffer is then gone.
func (in *inbound) recv(conn uint64, b []byte) (n int, eof bool) {
	box := in.conns[conn]
	if box == nil {
		return 0, true
	}
	for n < len(b) && len(box.data) > 0 {
		c := copy(b[n:], box.data[0])
		n += c
		if box.data[0] = box.data[0][c:]; len(box.data[0]) == 0 {
			box.data[0] = nil
			box.data = box.data[1:]
		}
	}
	if n == 0 && box.eof {
		delete(in.conns, conn)
		return 0, true
	}
	return n, false
}

// close drops whatever is filed for conn; later calls for it are dropped
// when they are filed.
func (in *inbound) close(conn uint64) { delete(in.conns, conn) }

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

// Poll reports readiness without consuming: it blocks until a CONNECT for
// this port is filed. The hint is ignored — readiness is a deterministic
// property of the sequence, not of physical time.
func (l *dmtListener) Poll(t papi.T, hint time.Duration) bool {
	th, ok := papi.DMTThreadOf(t)
	if !ok {
		return false
	}
	// Each lane's acceptor waits on its own lane's backlog: CONNECTs are
	// routed to lanes by the program's conflict map, so lane L only ever
	// files (and accepts) its own connections.
	in := l.r.inbound[th.LaneID()]
	th.GetTurn()
	th.Admit()
	for len(in.backlog[l.port]) == 0 {
		th.WaitOn(acceptKey{l.port})
	}
	th.PutTurn()
	return true
}

// Accept takes the oldest filed connection at a deterministic logical time.
func (l *dmtListener) Accept(t papi.T) (papi.Conn, error) {
	th, ok := papi.DMTThreadOf(t)
	if !ok {
		return nil, errors.New("crane: accept from non-DMT thread")
	}
	in := l.r.inbound[th.LaneID()]
	th.GetTurn()
	th.Admit()
	for {
		if connID, ok := in.accept(l.port); ok {
			th.PutTurn()
			return &dmtConn{r: l.r, id: connID, in: in}, nil
		}
		th.WaitOn(acceptKey{l.port})
	}
}

// Close is a no-op: the listener is virtual (the proxy owns the real one).
func (l *dmtListener) Close() error { return nil }

type dmtConn struct {
	r      *Replica
	id     uint64
	in     *inbound // the connection's lane's filed input
	eof    bool     // all client data consumed (guarded by the token)
	closed bool
}

// ID implements papi.Conn.
func (c *dmtConn) ID() uint64 { return c.id }

// Recv implements the recv() wrapper of Fig. 11: block on the connection
// key until the gate has filed a matching client send(), then read filed
// bytes up to len(buf).
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
		n, eof := c.in.recv(c.id, buf)
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
// responds to the client; backups log and drop (§2.1). The output joins
// the lane's flight journal as a comparable event, so replicas whose
// replies differ split their lane chains even when their schedules agree.
// The digest is taken before the turn, keeping the hash off the token.
func (c *dmtConn) Send(t papi.T, data []byte) (int, error) {
	th, ok := papi.DMTThreadOf(t)
	if !ok {
		return 0, errors.New("crane: send from non-DMT thread")
	}
	digest := trace.Digest(data)
	th.GetTurn()
	th.Admit()
	c.r.flt.Lane(th.LaneID()).Emit(flight.EvOutput, th.LaneClock(), flight.PosUnchanged, c.id, digest)
	c.r.emitOutput(c.id, data)
	th.PutTurn()
	return len(data), nil
}

// Close releases the server side; client calls for this connection filed
// from here on are dropped.
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
		c.in.close(c.id)
		c.r.ro.dropConnReq(c.id)
	}
	th.PutTurn()
	c.r.proxyCloseConn(c.id)
	return nil
}

// --- pump sockets (paxos-only mode): consensus-ordered admission with ---
// --- nondeterministic threading (Figure 14's "w/ Paxos only" bars)    ---

// pumpSockets delivers sequence entries to plain-goroutine servers in
// consensus order, using ordinary condition variables: input ordering
// without execution determinism. Whoever holds mu files every committed call
// (fileAll) before looking for its own, so, as under the gate, a call no
// thread is waiting for cannot hold up the ones behind it.
type pumpSockets struct {
	r    *Replica
	sq   *seq.Sequence // the one sequence: paxos-only mode runs a single lane
	in   *inbound      // guarded by mu
	mu   sync.Mutex
	cond *sync.Cond
}

func newPumpSockets(r *Replica) *pumpSockets {
	p := &pumpSockets{r: r, sq: r.sqs[0], in: r.inbound[0]}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// wake is called by the replica whenever a new entry is enqueued.
func (p *pumpSockets) wake() { p.cond.Broadcast() }

// Listen implements papi.SocketLayer.
func (p *pumpSockets) Listen(t papi.T, port int) (papi.Listener, error) {
	return &pumpListener{p: p, port: port}, nil
}

// fileAll files every committed call. Paxos-only mode proposes no bubbles,
// so the head is always a client call, and it does not speculate, so nothing
// replaces the head under the pump (PopCall's want is nil). Caller holds p.mu.
func (p *pumpSockets) fileAll() {
	for e, ok := p.sq.PopCall(nil); ok; e, ok = p.sq.PopCall(nil) {
		p.in.file(p.r, e)
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
		l.p.fileAll()
		ready := len(l.p.in.backlog[l.port]) > 0
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
		l.p.fileAll()
		if connID, ok := l.p.in.accept(l.port); ok {
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
		c.p.fileAll()
		n, eof := c.p.in.recv(c.id, buf)
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
		c.p.in.close(c.id)
		c.p.r.ro.dropConnReq(c.id)
		c.p.cond.Broadcast()
	}
	c.p.mu.Unlock()
	c.p.r.proxyCloseConn(c.id)
	return nil
}
