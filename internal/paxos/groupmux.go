package paxos

import "sync"

// GroupMux multiplexes several consensus groups' traffic over one
// underlying Transport endpoint: each replica keeps a single hub endpoint,
// and the mux fans messages out to per-group Nodes by the Message.Group
// tag. Port(g) returns the Transport for group g; sends through it stamp
// Group=g, and the mux's handler on the inner endpoint dispatches inbound
// messages to the registered group handler.
//
// Lifecycle: each Node closes its own Transport when it stops, so ports
// are reference-counted — the inner endpoint closes when the last open
// port closes. Close() on the mux itself force-closes everything.
type GroupMux struct {
	inner Transport

	mu       sync.Mutex
	handlers map[int]func(Message)
	open     int  // ports issued and not yet closed
	started  bool // inner handler installed
	closed   bool
}

// NewGroupMux wraps inner. The caller must not use inner directly once
// ports are issued (the mux owns its handler registration).
func NewGroupMux(inner Transport) *GroupMux {
	return &GroupMux{inner: inner, handlers: make(map[int]func(Message))}
}

// Port returns the Transport endpoint for group g, creating it on first
// use. Safe for concurrent use.
func (m *GroupMux) Port(g int) Transport {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.open++
	if !m.started {
		m.started = true
		m.inner.SetHandler(m.dispatch)
	}
	return &muxPort{mux: m, group: g}
}

func (m *GroupMux) dispatch(msg Message) {
	m.mu.Lock()
	h := m.handlers[msg.Group]
	m.mu.Unlock()
	if h != nil {
		h(msg)
	}
}

// Close force-closes the inner endpoint regardless of open ports.
func (m *GroupMux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	return m.inner.Close()
}

// muxPort is one group's view of the shared endpoint.
type muxPort struct {
	mux    *GroupMux
	group  int
	mu     sync.Mutex
	closed bool
}

// Send implements Transport, stamping the group tag.
func (p *muxPort) Send(to int, msg Message) error {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return ErrTransportClosed
	}
	msg.Group = p.group
	return p.mux.inner.Send(to, msg)
}

// SetHandler implements Transport.
func (p *muxPort) SetHandler(h func(Message)) {
	p.mux.mu.Lock()
	p.mux.handlers[p.group] = h
	p.mux.mu.Unlock()
}

// Close implements Transport: the port stops receiving, and the inner
// endpoint closes when the last port does.
func (p *muxPort) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	m := p.mux
	m.mu.Lock()
	delete(m.handlers, p.group)
	m.open--
	last := m.open == 0 && !m.closed
	if last {
		m.closed = true
	}
	m.mu.Unlock()
	if last {
		return m.inner.Close()
	}
	return nil
}
