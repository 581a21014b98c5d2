package papi

import "crane/internal/dmt"

// SocketLayer lets an embedding system (the crane package) replace the
// process's socket implementation while reusing its thread and
// synchronization runtime. This is the analogue of CRANE interposing on
// the socket API while Parrot interposes on Pthreads: same process, two
// interception layers.
type SocketLayer interface {
	Listen(t T, port int) (Listener, error)
}

// SetSocketLayer installs sl; must be called before Start.
func (p *ParrotProc) SetSocketLayer(sl SocketLayer) { p.socketLayer = sl }

// SetSocketLayer installs sl; must be called before Start.
func (p *NondetProc) SetSocketLayer(sl SocketLayer) { p.socketLayer = sl }

// DMTThreadOf extracts the scheduler thread behind a DMT-backed T. It
// reports false for plain-goroutine runtimes.
func DMTThreadOf(t T) (*dmt.Thread, bool) {
	if pt, ok := t.(*parrotT); ok {
		return pt.th, true
	}
	return nil, false
}
