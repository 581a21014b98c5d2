package papi

import (
	"sync"
	"time"

	"crane/internal/cfs"
	"crane/internal/dmt"
	"crane/internal/simnet"
)

// ParrotProc runs a Program under the DMT scheduler alone — the paper's
// "w/ Parrot only" configuration: synchronization is deterministic, but
// blocking socket calls go through the real network and return
// nondeterministically via the scheduler's reentry queue (§3.1). A
// gate may be installed (by the crane package) to turn this process into a
// fully deterministic CRANE replica, in which case the socket layer is
// replaced too.
type ParrotProc struct {
	Sched *dmt.Scheduler
	net   *simnet.Network
	host  string
	fs    *cfs.FS

	mu          sync.Mutex
	listeners   []*simnet.Listener
	conns       []*simnet.Conn
	barriers    map[string]*dmt.SoftBarrier
	main        *dmt.Thread
	socketLayer SocketLayer
}

// NewParrotProc creates a DMT-scheduled process on the given network host.
func NewParrotProc(net *simnet.Network, host string, fs *cfs.FS) *ParrotProc {
	if fs == nil {
		fs = cfs.New()
	}
	return &ParrotProc{
		Sched:    dmt.New(),
		net:      net,
		host:     host,
		fs:       fs,
		barriers: make(map[string]*dmt.SoftBarrier),
	}
}

// SetLanes configures n parallel execution lanes (dmt.SetLanes). Call
// before Start; n <= 1 keeps the single-token configuration. Only programs
// that declare a papi.ConflictMap should run with more than one lane (use
// Program.EffectiveLanes to clamp).
func (p *ParrotProc) SetLanes(n int) { p.Sched.SetLanes(n) }

// Start launches the scheduler's idle thread and the program's main thread.
func (p *ParrotProc) Start(inst Instance) {
	p.main = p.Sched.StartMain("main", func(th *dmt.Thread) {
		inst.Run(&parrotT{p: p, th: th})
	})
}

// Kill tears the process down: the scheduler unwinds every scheduled
// thread and open sockets close so real blocking calls return.
func (p *ParrotProc) Kill() {
	p.mu.Lock()
	ls, cs := p.listeners, p.conns
	p.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, c := range cs {
		c.Close()
	}
	p.Sched.Kill()
}

// Wait blocks until all threads exit.
func (p *ParrotProc) Wait() { p.Sched.Join() }

// WaitMain blocks until the program's main thread returns (the scheduler's
// idle thread keeps running; call Kill afterwards to tear it down).
func (p *ParrotProc) WaitMain() {
	for p.main != nil && !p.main.Finished() && !p.Sched.Killed() {
		time.Sleep(200 * time.Microsecond)
	}
}

// FS returns the process's container filesystem.
func (p *ParrotProc) FS() *cfs.FS { return p.fs }

// parrotT is the DMT-backed thread handle.
type parrotT struct {
	p  *ParrotProc
	th *dmt.Thread
}

type parrotHandle struct{ th *dmt.Thread }

func (*parrotHandle) handle() {}

func (t *parrotT) Spawn(name string, fn func(T)) Handle {
	child := t.p.Sched.Spawn(t.th, name, func(th *dmt.Thread) {
		fn(&parrotT{p: t.p, th: th})
	})
	return &parrotHandle{th: child}
}

func (t *parrotT) Join(h Handle) {
	if ph, ok := h.(*parrotHandle); ok && ph.th != nil {
		t.th.Join(ph.th)
	}
}

func (t *parrotT) Lanes() int { return t.p.Sched.Lanes() }

func (t *parrotT) SpawnLane(lane int, name string, fn func(T)) Handle {
	child := t.p.Sched.SpawnLane(t.th, lane, name, func(th *dmt.Thread) {
		fn(&parrotT{p: t.p, th: th})
	})
	return &parrotHandle{th: child}
}

// NewMutex and NewRWMutex stay unbound: safe from any lane, merge-ordered
// when lanes exist. NewCond binds to the creating thread's lane — condition
// variables cannot span lanes (wait queues are per-lane), so a cond shared
// across lanes must be replaced by per-lane conds via NewCondLane.
func (t *parrotT) NewMutex() Mutex { return &parrotMutex{} }
func (t *parrotT) NewCond() Cond {
	pc := &parrotCond{}
	pc.c.BindLane(t.th.LaneID())
	return pc
}
func (t *parrotT) NewRWMutex() RWMutex { return &parrotRW{} }

func (t *parrotT) NewMutexLane(lane int) Mutex {
	pm := &parrotMutex{}
	pm.m.BindLane(lane)
	return pm
}

func (t *parrotT) NewCondLane(lane int) Cond {
	pc := &parrotCond{}
	pc.c.BindLane(lane)
	return pc
}

func (t *parrotT) NewRWMutexLane(lane int) RWMutex {
	pr := &parrotRW{}
	pr.rw.BindLane(lane)
	return pr
}

func (t *parrotT) SoftBarrier(id string, n int, timeoutTicks uint64) Barrier {
	t.p.mu.Lock()
	defer t.p.mu.Unlock()
	sb, ok := t.p.barriers[id]
	if !ok {
		sb = dmt.NewSoftBarrier(n, timeoutTicks)
		t.p.barriers[id] = sb
	}
	return &parrotBarrier{sb: sb}
}

func (t *parrotT) FS() *cfs.FS { return t.p.fs }

func (t *parrotT) Work(units int) { BurnWork(units) }

// DetEpoch anchors deterministic time (the paper's publication date).
var DetEpoch = time.Date(2015, time.October, 4, 0, 0, 0, 0, time.UTC)

// Now returns deterministic time: the calling thread's lane clock, as
// stamped at its own last scheduled operation, at 1µs per operation from a
// fixed epoch. Identical on every replica at the same execution point,
// however long the thread ran since that operation (with one lane, the
// lane clock is the global logical clock).
func (t *parrotT) Now() time.Time {
	return DetEpoch.Add(time.Duration(t.th.LaneClock()) * time.Microsecond)
}

func (t *parrotT) Killed() bool { return t.p.Sched.Killed() }

func (t *parrotT) Listen(port int) (Listener, error) {
	if sl := t.p.socketLayer; sl != nil {
		return sl.Listen(t, port)
	}
	// Listening itself is not a synchronization operation; bind directly.
	l, err := t.p.net.Listen(simnet.Addr(addrFor(t.p.host, port)))
	if err != nil {
		return nil, err
	}
	t.p.mu.Lock()
	t.p.listeners = append(t.p.listeners, l)
	t.p.mu.Unlock()
	return &parrotListener{p: t.p, l: l}, nil
}

// parrotListener performs real (nondeterministic) blocking accepts through
// the scheduler's blocking-call protocol.
type parrotListener struct {
	p *ParrotProc
	l *simnet.Listener
}

func (pl *parrotListener) Poll(t T, hint time.Duration) bool {
	th := t.(*parrotT).th
	th.BlockingEnter()
	ready := pl.l.Poll(hint)
	th.BlockingExit()
	return ready
}

func (pl *parrotListener) Accept(t T) (Conn, error) {
	th := t.(*parrotT).th
	th.BlockingEnter()
	c, err := pl.l.Accept()
	th.BlockingExit()
	if err != nil {
		return nil, err
	}
	pl.p.mu.Lock()
	pl.p.conns = append(pl.p.conns, c)
	pl.p.mu.Unlock()
	return &parrotConn{p: pl.p, c: c}, nil
}

func (pl *parrotListener) Close() error { return pl.l.Close() }

type parrotConn struct {
	p *ParrotProc
	c *simnet.Conn
}

func (pc *parrotConn) ID() uint64 { return pc.c.ID() }

func (pc *parrotConn) Recv(t T, buf []byte) (int, error) {
	th := t.(*parrotT).th
	th.BlockingEnter()
	n, err := pc.c.Read(buf)
	th.BlockingExit()
	return n, err
}

func (pc *parrotConn) Send(t T, data []byte) (int, error) {
	// Outgoing calls are scheduled by DMT (§2.1): one scheduled op per
	// send, with the actual write done under the token so per-connection
	// output order matches the deterministic schedule.
	th := t.(*parrotT).th
	th.GetTurn()
	th.Admit()
	n, err := pc.c.Write(data)
	th.PutTurn()
	return n, err
}

func (pc *parrotConn) Close(t T) error {
	th := t.(*parrotT).th
	th.GetTurn()
	th.Admit()
	err := pc.c.Close()
	th.PutTurn()
	return err
}

// parrotMutex adapts dmt.Mutex.
type parrotMutex struct{ m dmt.Mutex }

func (pm *parrotMutex) Lock(t T)   { t.(*parrotT).th.Lock(&pm.m) }
func (pm *parrotMutex) Unlock(t T) { t.(*parrotT).th.Unlock(&pm.m) }
func (pm *parrotMutex) TryLock(t T) bool {
	return t.(*parrotT).th.TryLock(&pm.m)
}

// parrotCond adapts dmt.Cond.
type parrotCond struct{ c dmt.Cond }

func (pc *parrotCond) Wait(t T, m Mutex) {
	t.(*parrotT).th.CondWait(&pc.c, &m.(*parrotMutex).m)
}
func (pc *parrotCond) Signal(t T)    { t.(*parrotT).th.CondSignal(&pc.c) }
func (pc *parrotCond) Broadcast(t T) { t.(*parrotT).th.CondBroadcast(&pc.c) }

// parrotRW adapts dmt.RWMutex.
type parrotRW struct{ rw dmt.RWMutex }

func (pr *parrotRW) RLock(t T)   { t.(*parrotT).th.RLock(&pr.rw) }
func (pr *parrotRW) RUnlock(t T) { t.(*parrotT).th.RUnlock(&pr.rw) }
func (pr *parrotRW) Lock(t T)    { t.(*parrotT).th.WLock(&pr.rw) }
func (pr *parrotRW) Unlock(t T)  { t.(*parrotT).th.WUnlock(&pr.rw) }

// parrotBarrier adapts dmt.SoftBarrier.
type parrotBarrier struct{ sb *dmt.SoftBarrier }

func (pb *parrotBarrier) Arrive(t T) { t.(*parrotT).th.SoftBarrierArrive(pb.sb) }
