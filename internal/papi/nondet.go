package papi

import (
	"sync"
	"time"

	"crane/internal/cfs"
	"crane/internal/simnet"
)

// NondetProc runs a Program the way an ordinary OS would: goroutines,
// plain mutexes, raw sockets. It is the paper's "un-replicated
// nondeterministic execution" baseline that every Figure-14 bar is
// normalized against.
type NondetProc struct {
	net  *simnet.Network
	host string
	fs   *cfs.FS

	mu          sync.Mutex
	listeners   []*simnet.Listener
	conns       []*simnet.Conn
	conds       []*nondetCond
	killed      bool
	killCh      chan struct{}
	wg          sync.WaitGroup
	socketLayer SocketLayer
	lanes       int // structural lane count; plain goroutines need no domains
}

// nondetKilled is the sentinel thrown through threads parked on condition
// variables when the process is killed, mirroring the DMT runtime's
// unwind-on-Kill semantics; the Spawn wrapper recovers it.
type nondetKilled struct{}

func (p *NondetProc) isKilled() bool {
	select {
	case <-p.killCh:
		return true
	default:
		return false
	}
}

// NewNondetProc creates a baseline process on the given network host.
func NewNondetProc(net *simnet.Network, host string, fs *cfs.FS) *NondetProc {
	if fs == nil {
		fs = cfs.New()
	}
	return &NondetProc{net: net, host: host, fs: fs, killCh: make(chan struct{})}
}

// SetLanes records the lane count for the structural lane API. The
// baseline runtime has no token domains — goroutines already run in
// parallel — so lanes only shape Lanes()/Lane() partitioning decisions the
// app makes; all lane-tagged spawns and sync objects degrade to the plain
// variants.
func (p *NondetProc) SetLanes(n int) {
	if n < 1 {
		n = 1
	}
	p.lanes = n
}

// Start launches the program's main thread.
func (p *NondetProc) Start(inst Instance) {
	t := &nondetT{p: p}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer recoverKilled()
		inst.Run(t)
	}()
}

func recoverKilled() {
	if r := recover(); r != nil {
		if _, ok := r.(nondetKilled); !ok {
			panic(r)
		}
	}
}

// Kill tears the process down: listeners and connections close, blocked
// socket calls fail, and loops observing Killed exit.
func (p *NondetProc) Kill() {
	p.mu.Lock()
	if p.killed {
		p.mu.Unlock()
		return
	}
	p.killed = true
	ls, cs, conds := p.listeners, p.conns, p.conds
	p.mu.Unlock()
	close(p.killCh)
	for _, l := range ls {
		l.Close()
	}
	for _, c := range cs {
		c.Close()
	}
	// Wake every thread parked on a condition variable so it can unwind.
	for _, cv := range conds {
		if c := cv.cond(); c != nil {
			c.Broadcast()
		}
	}
}

// Wait blocks until all threads exit.
func (p *NondetProc) Wait() { p.wg.Wait() }

// FS returns the process's container filesystem.
func (p *NondetProc) FS() *cfs.FS { return p.fs }

type nondetT struct{ p *NondetProc }

type nondetHandle struct{ done chan struct{} }

func (*nondetHandle) handle() {}

func (t *nondetT) Spawn(name string, fn func(T)) Handle {
	h := &nondetHandle{done: make(chan struct{})}
	t.p.wg.Add(1)
	go func() {
		defer t.p.wg.Done()
		defer close(h.done)
		defer recoverKilled()
		fn(&nondetT{p: t.p})
	}()
	return h
}

func (t *nondetT) Join(h Handle) {
	if nh, ok := h.(*nondetHandle); ok {
		<-nh.done
	}
}

func (t *nondetT) NewMutex() Mutex { return &nondetMutex{} }

func (t *nondetT) NewCond() Cond {
	cv := &nondetCond{p: t.p}
	t.p.mu.Lock()
	t.p.conds = append(t.p.conds, cv)
	t.p.mu.Unlock()
	return cv
}

func (t *nondetT) NewRWMutex() RWMutex { return &nondetRW{} }

func (t *nondetT) Lanes() int {
	if t.p.lanes < 1 {
		return 1
	}
	return t.p.lanes
}

func (t *nondetT) Lane(key uint64) int { return int(key % uint64(t.Lanes())) }

func (t *nondetT) SpawnLane(lane int, name string, fn func(T)) Handle {
	return t.Spawn(name, fn)
}

func (t *nondetT) NewMutexLane(lane int) Mutex     { return t.NewMutex() }
func (t *nondetT) NewCondLane(lane int) Cond       { return t.NewCond() }
func (t *nondetT) NewRWMutexLane(lane int) RWMutex { return t.NewRWMutex() }

// SoftBarrier hints are ignored by the plain runtime (they are "soft" by
// contract and only influence DMT schedules).
func (t *nondetT) SoftBarrier(id string, n int, timeoutTicks uint64) Barrier {
	return nopBarrier{}
}

type nopBarrier struct{}

func (nopBarrier) Arrive(T) {}

func (t *nondetT) FS() *cfs.FS { return t.p.fs }

func (t *nondetT) Work(units int) { BurnWork(units) }

// Now returns physical time (the un-replicated baseline has no logical
// clock to derive deterministic time from).
func (t *nondetT) Now() time.Time { return time.Now() } //crane:detflow-ok ModeNondet is the un-replicated baseline, nondeterministic by design

func (t *nondetT) Killed() bool {
	select {
	case <-t.p.killCh:
		return true
	default:
		return false
	}
}

func (t *nondetT) Listen(port int) (Listener, error) {
	if sl := t.p.socketLayer; sl != nil {
		return sl.Listen(t, port)
	}
	l, err := t.p.net.Listen(simnet.Addr(addrFor(t.p.host, port)))
	if err != nil {
		return nil, err
	}
	t.p.mu.Lock()
	t.p.listeners = append(t.p.listeners, l)
	killed := t.p.killed
	t.p.mu.Unlock()
	if killed {
		l.Close()
	}
	return &nondetListener{p: t.p, l: l}, nil
}

func addrFor(host string, port int) string {
	return host + ":" + itoa(port)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

type nondetListener struct {
	p *NondetProc
	l *simnet.Listener
}

func (nl *nondetListener) Poll(t T, hint time.Duration) bool {
	return nl.l.Poll(hint)
}

func (nl *nondetListener) Accept(t T) (Conn, error) {
	c, err := nl.l.Accept()
	if err != nil {
		return nil, err
	}
	nl.p.mu.Lock()
	nl.p.conns = append(nl.p.conns, c)
	nl.p.mu.Unlock()
	return &nondetConn{c: c}, nil
}

func (nl *nondetListener) Close() error { return nl.l.Close() }

type nondetConn struct{ c *simnet.Conn }

func (nc *nondetConn) ID() uint64 { return nc.c.ID() }

func (nc *nondetConn) Recv(t T, buf []byte) (int, error) { return nc.c.Read(buf) }

func (nc *nondetConn) Send(t T, data []byte) (int, error) { return nc.c.Write(data) }

func (nc *nondetConn) Close(t T) error { return nc.c.Close() }

// nondetMutex adapts sync.Mutex.
type nondetMutex struct{ mu sync.Mutex }

func (m *nondetMutex) Lock(T)         { m.mu.Lock() }
func (m *nondetMutex) Unlock(T)       { m.mu.Unlock() }
func (m *nondetMutex) TryLock(T) bool { return m.mu.TryLock() }

// nondetCond adapts sync.Cond, binding lazily to the first mutex waited on
// (pthread allows one mutex per cond at a time; apps here comply). Waiters
// unwind via the kill sentinel when the process is torn down — releasing
// the mutex first so peers blocked in Lock can proceed to their own unwind.
type nondetCond struct {
	p   *NondetProc
	cmu sync.Mutex // guards c against concurrent bind/teardown reads
	c   *sync.Cond
}

func (nc *nondetCond) bind(m Mutex) *sync.Cond {
	nc.cmu.Lock()
	defer nc.cmu.Unlock()
	if nc.c == nil {
		nc.c = sync.NewCond(&m.(*nondetMutex).mu)
	}
	return nc.c
}

// cond returns the bound sync.Cond, or nil if no thread has waited yet.
func (nc *nondetCond) cond() *sync.Cond {
	nc.cmu.Lock()
	defer nc.cmu.Unlock()
	return nc.c
}

func (nc *nondetCond) Wait(t T, m Mutex) {
	c := nc.bind(m)
	if nc.p != nil && nc.p.isKilled() {
		m.Unlock(t)
		panic(nondetKilled{})
	}
	c.Wait()
	if nc.p != nil && nc.p.isKilled() {
		m.Unlock(t)
		panic(nondetKilled{})
	}
}
func (nc *nondetCond) Signal(T) {
	if c := nc.cond(); c != nil {
		c.Signal()
	}
}
func (nc *nondetCond) Broadcast(T) {
	if c := nc.cond(); c != nil {
		c.Broadcast()
	}
}

// nondetRW adapts sync.RWMutex.
type nondetRW struct{ mu sync.RWMutex }

func (m *nondetRW) RLock(T)   { m.mu.RLock() }
func (m *nondetRW) RUnlock(T) { m.mu.RUnlock() }
func (m *nondetRW) Lock(T)    { m.mu.Lock() }
func (m *nondetRW) Unlock(T)  { m.mu.Unlock() }
