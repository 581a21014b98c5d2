package paxos

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Transport moves messages between consensus nodes. Implementations must
// deliver messages to the registered handler serially per node (the node's
// event loop assumes single-threaded message intake is not required — it
// serializes internally — but ordering per sender should be preserved,
// which ChanTransport does).
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
	ep := &ChanTransport{hub: h, id: id, inbox: make(chan Message, 4096), stop: make(chan struct{})}
	h.eps[id] = ep
	go ep.pump()
	return ep
}

// Disconnect isolates node id (drops all traffic to and from it) until
// Reconnect. Used to simulate replica failure without tearing state down.
func (h *ChanHub) Disconnect(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ep, ok := h.eps[id]; ok {
		ep.mu.Lock()
		ep.isolated = true
		ep.mu.Unlock()
	}
}

// Reconnect restores node id's connectivity.
func (h *ChanHub) Reconnect(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ep, ok := h.eps[id]; ok {
		ep.mu.Lock()
		ep.isolated = false
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

// ChanTransport is one node's endpoint on a ChanHub.
type ChanTransport struct {
	hub   *ChanHub
	id    int
	inbox chan Message
	stop  chan struct{}

	// Drop accounting (atomic: Send races with the pump goroutine and with
	// peers' Sends targeting this endpoint's inbox).
	sent         atomic.Uint64 // messages this endpoint sent (pre-loss)
	received     atomic.Uint64 // messages delivered to the handler
	lossDropped  atomic.Uint64 // sends dropped by simulated loss/isolation
	inboxDropped atomic.Uint64 // inbound messages dropped on inbox overflow

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
	InboxDropped uint64 // inbound drops from inbox overflow
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

func (t *ChanTransport) pump() {
	for {
		select {
		case msg := <-t.inbox:
			t.mu.Lock()
			h := t.handler
			iso := t.isolated
			t.mu.Unlock()
			if h != nil && !iso {
				t.received.Add(1)
				h(msg)
			}
		case <-t.stop:
			return
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
	deliver := func() {
		dst.mu.Lock()
		closed := dst.closed
		dst.mu.Unlock()
		if closed {
			return
		}
		select {
		case dst.inbox <- msg:
		default:
			// Inbox overflow: drop (the protocol retransmits), but count
			// it so soak tests can tell overflow from simulated loss.
			dst.inboxDropped.Add(1)
		}
	}
	if delay > 0 {
		time.AfterFunc(delay, deliver)
	} else {
		deliver()
	}
	return nil
}

// SetHandler implements Transport.
func (t *ChanTransport) SetHandler(h func(Message)) {
	t.mu.Lock()
	t.handler = h
	t.mu.Unlock()
}

// Close implements Transport.
func (t *ChanTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	close(t.stop)
	return nil
}
