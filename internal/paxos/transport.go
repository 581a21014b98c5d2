package paxos

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"crane/internal/hrtimer"
)

// Transport moves messages between consensus nodes. Messages may be lost,
// duplicated by retransmission or reordered: the protocol retransmits and
// checks views and indexes on every message, so no ordering is promised.
// (ChanTransport delivers to each node serially, in due-time order: under
// jitter a later send can arrive first.)
type Transport interface {
	// Send transmits msg to the node with the given id. Send is
	// best-effort: transport-level loss is handled by the protocol's
	// retransmission (heartbeat-driven catch-up).
	Send(to int, msg Message) error
	// SetHandler registers the receive callback. Must be called before
	// the first Send targeting this node.
	SetHandler(h func(msg Message))
	// Close releases transport resources.
	Close() error
}

// ErrTransportClosed is returned by Send after Close.
var ErrTransportClosed = errors.New("paxos: transport closed")

// ChanHub is an in-process transport fabric connecting a set of nodes with
// optional latency, jitter, and probabilistic loss — the consensus-side
// analogue of simnet. Each node gets a ChanTransport from Endpoint.
type ChanHub struct {
	mu      sync.Mutex
	eps     map[int]*ChanTransport
	latency time.Duration
	jitter  time.Duration
	loss    float64 // probability in [0,1) that a message is dropped
	rng     *rand.Rand
	closed  bool
}

// NewChanHub creates a hub. Zero latency/jitter/loss means instant,
// reliable delivery.
func NewChanHub(latency, jitter time.Duration, loss float64, seed int64) *ChanHub {
	if seed == 0 {
		seed = 1
	}
	return &ChanHub{
		eps:     make(map[int]*ChanTransport),
		latency: latency,
		jitter:  jitter,
		loss:    loss,
		rng:     rand.New(rand.NewSource(seed)), //crane:detflow-ok deterministically seeded by the caller
	}
}

// Endpoint returns the transport for node id, creating a fresh one if none
// exists or the previous one was closed (a restarted node must not inherit
// its predecessor's dead endpoint).
func (h *ChanHub) Endpoint(id int) *ChanTransport {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ep, ok := h.eps[id]; ok {
		ep.mu.Lock()
		closed := ep.closed
		ep.mu.Unlock()
		if !closed {
			return ep
		}
	}
	ep := &ChanTransport{hub: h, id: id, kick: make(chan struct{}, 1),
		stop: make(chan struct{}), exited: make(chan struct{})}
	h.eps[id] = ep
	go ep.pump()
	return ep
}

// Disconnect isolates node id (drops all traffic to and from it) until
// Reconnect. Used to simulate replica failure without tearing state down.
func (h *ChanHub) Disconnect(id int) { h.isolate(id, true) }

// Reconnect restores node id's connectivity.
func (h *ChanHub) Reconnect(id int) { h.isolate(id, false) }

func (h *ChanHub) isolate(id int, on bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ep, ok := h.eps[id]; ok {
		ep.mu.Lock()
		ep.isolated = on
		ep.mu.Unlock()
	}
}

// Close shuts down every endpoint.
func (h *ChanHub) Close() {
	h.mu.Lock()
	eps := make([]*ChanTransport, 0, len(h.eps))
	for _, ep := range h.eps {
		eps = append(eps, ep)
	}
	h.closed = true
	h.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
}

// inboxBound is how many in-flight messages an endpoint holds; a send to a
// full endpoint is dropped (and counted in InboxDropped).
const inboxBound = 4096

// ChanTransport is one node's endpoint on a ChanHub. Messages in flight to it
// wait in one due-time queue, which its pump goroutine drains on one hrtimer:
// a hop of the hub's latency arrives when it is due, in an idle process and a
// busy one alike, without a runtime timer or a closure per message.
type ChanTransport struct {
	hub    *ChanHub
	id     int
	kick   chan struct{} // one slot: a send changed q's head
	stop   chan struct{}
	exited chan struct{} // closed when pump has returned

	qmu  sync.Mutex
	q    dueQueue
	seqn uint64 // send order, the tie-break between equal due times

	// Drop accounting (atomic: Send races with the pump goroutine and with
	// peers' Sends targeting this endpoint's inbox).
	sent         atomic.Uint64 // messages this endpoint sent (pre-loss)
	received     atomic.Uint64 // messages delivered to the handler
	lossDropped  atomic.Uint64 // sends dropped by simulated loss/isolation
	inboxDropped atomic.Uint64 // inbound messages dropped on a full queue

	mu       sync.Mutex
	handler  func(Message)
	isolated bool
	closed   bool
}

// TransportStats is a snapshot of a ChanTransport endpoint's counters.
// Overflow and loss drops are legal (the protocol retransmits) but were
// previously invisible, making soak-test loss undiagnosable.
type TransportStats struct {
	Sent         uint64 // messages submitted to Send (before loss)
	MsgsReceived uint64 // messages delivered to the handler
	LossDropped  uint64 // outbound drops from simulated loss or isolation
	InboxDropped uint64 // inbound drops from a full delivery queue
}

// Stats returns a snapshot of the endpoint's counters.
func (t *ChanTransport) Stats() TransportStats {
	return TransportStats{
		Sent:         t.sent.Load(),
		MsgsReceived: t.received.Load(),
		LossDropped:  t.lossDropped.Load(),
		InboxDropped: t.inboxDropped.Load(),
	}
}

// pump delivers every message that is due, in due-time order, and sleeps
// until the next one is due or a send changes the queue's head.
func (t *ChanTransport) pump() {
	defer close(t.exited)
	tm := hrtimer.New()
	defer tm.Stop()
	for {
		t.qmu.Lock()
		for len(t.q) > 0 && !t.q[0].due.After(time.Now()) {
			msg := t.q.pop()
			t.qmu.Unlock()
			t.deliver(msg)
			t.qmu.Lock()
		}
		if len(t.q) > 0 {
			tm.Reset(time.Until(t.q[0].due))
		}
		t.qmu.Unlock()
		select {
		case <-t.kick:
		case <-tm.C:
		case <-t.stop:
			return
		}
	}
}

// deliver hands msg to the handler unless the endpoint is isolated.
func (t *ChanTransport) deliver(msg Message) {
	t.mu.Lock()
	h := t.handler
	iso := t.isolated
	t.mu.Unlock()
	if h != nil && !iso {
		t.received.Add(1)
		h(msg)
	}
}

// enqueue files msg to be delivered at due, or drops it when the queue is
// full, and wakes the pump when msg is the new head.
func (t *ChanTransport) enqueue(msg Message, due time.Time) {
	t.qmu.Lock()
	if len(t.q) >= inboxBound {
		t.qmu.Unlock()
		// Overflow: drop (the protocol retransmits), but count it so soak
		// tests can tell overflow from simulated loss.
		t.inboxDropped.Add(1)
		return
	}
	t.seqn++
	head := t.q.push(queued{due: due, seq: t.seqn, msg: msg}) == 0
	t.qmu.Unlock()
	if head {
		select {
		case t.kick <- struct{}{}:
		default:
		}
	}
}

// Send implements Transport.
func (t *ChanTransport) Send(to int, msg Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrTransportClosed
	}
	iso := t.isolated
	t.mu.Unlock()
	t.sent.Add(1)
	if iso {
		t.lossDropped.Add(1)
		return nil // dropped, like a dead NIC
	}
	h := t.hub
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return ErrTransportClosed
	}
	dst, ok := h.eps[to]
	drop := h.loss > 0 && h.rng.Float64() < h.loss
	delay := h.latency
	if h.jitter > 0 {
		delay += time.Duration(h.rng.Int63n(int64(h.jitter)))
	}
	h.mu.Unlock()
	if !ok || drop {
		t.lossDropped.Add(1)
		return nil
	}
	dst.mu.Lock()
	closed := dst.closed
	dst.mu.Unlock()
	if !closed {
		dst.enqueue(msg, time.Now().Add(delay))
	}
	return nil
}

// SetHandler implements Transport.
func (t *ChanTransport) SetHandler(h func(Message)) {
	t.mu.Lock()
	t.handler = h
	t.mu.Unlock()
}

// Close implements Transport. It returns once the pump has stopped, so no
// handler runs and no deadline stays armed after it: a handler must not call
// Close on its own endpoint.
func (t *ChanTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	close(t.stop)
	<-t.exited
	return nil
}

// queued is one message in flight to an endpoint.
type queued struct {
	due time.Time
	seq uint64
	msg Message
}

// dueQueue is a min-heap of in-flight messages on (due, seq): due-time order,
// send order among equal due times. It holds values, so a steady stream of
// sends reuses its backing array instead of allocating.
type dueQueue []queued

func (q dueQueue) less(i, j int) bool {
	if !q[i].due.Equal(q[j].due) {
		return q[i].due.Before(q[j].due)
	}
	return q[i].seq < q[j].seq
}

// push adds x and returns the index it settled at (0: the new head).
func (q *dueQueue) push(x queued) int {
	*q = append(*q, x)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return i
}

// pop removes and returns the head's message.
func (q *dueQueue) pop() Message {
	h := *q
	msg := h[0].msg
	n := len(h) - 1
	h[0] = h[n]
	h[n] = queued{} // drop the payload references
	h = h[:n]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return msg
}
