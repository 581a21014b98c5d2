// Package papi is the POSIX-like programming surface that replicated
// server programs are written against: threads, pthread-style
// synchronization, blocking sockets, a container filesystem, and CPU work.
//
// In the original system this surface *is* libc — CRANE interposes on the
// socket and Pthreads synchronization interfaces by hijacking dynamically
// linked library calls. A Go runtime cannot be interposed that way, so the
// interposition point is made explicit: applications call through these
// interfaces, and the interchangeable runtimes behind them are exactly the
// execution modes of the paper's evaluation (§7.3):
//
//   - nondet  — plain goroutines + sync (the "un-replicated
//     nondeterministic execution" baseline),
//   - parrot  — the DMT scheduler only ("w/ Parrot only"),
//   - paxos-only and full CRANE — provided by the crane package, which
//     adds the proxy, consensus, and time bubbling.
//
// An application is a Program: install files, then run Main as the
// process's main thread, spawning workers through T.
package papi

import (
	"time"

	"crane/internal/cfs"
)

// T is a thread's handle to the runtime: every synchronization and socket
// operation takes the calling thread explicitly (the stand-in for "which
// pthread is calling into the interposed libc").
type T interface {
	// Spawn creates a new thread running fn and returns its handle.
	Spawn(name string, fn func(T)) Handle
	// Join blocks until the thread behind h exits.
	Join(h Handle)

	// NewMutex, NewCond, NewRWMutex create synchronization objects.
	NewMutex() Mutex
	NewCond() Cond
	NewRWMutex() RWMutex
	// SoftBarrier returns the process-wide soft-barrier hint registered
	// under id, creating it with group size n and the given logical-tick
	// timeout on first use (§7.4's two-line performance hints).
	SoftBarrier(id string, n int, timeoutTicks uint64) Barrier

	// Lanes returns the number of parallel execution lanes this process
	// runs with: 1 unless the program declares a ConflictMap and the
	// deployment enables more. Lane indices range over [0, Lanes()).
	Lanes() int
	// SpawnLane creates a thread pinned to the given lane. Threads of
	// different lanes run concurrently; only lane-bound synchronization
	// stays on the fast in-lane path, while unbound objects go through the
	// deterministic cross-lane merge. With Lanes()==1 it is Spawn.
	SpawnLane(lane int, name string, fn func(T)) Handle
	// NewMutexLane, NewCondLane, NewRWMutexLane create synchronization
	// objects bound to a lane: usable only by that lane's threads
	// (enforced at runtime and by cranevet's laneconsistency analyzer),
	// in exchange for never paying the cross-lane merge. NewMutex and
	// NewRWMutex create *cross-lane* (merge-ordered) objects when lanes
	// exist; NewCond binds to the creating thread's lane, since condition
	// variables cannot span lanes.
	NewMutexLane(lane int) Mutex
	NewCondLane(lane int) Cond
	NewRWMutexLane(lane int) RWMutex

	// Listen binds the server's listening socket for port.
	Listen(port int) (Listener, error)

	// FS returns the replica's container filesystem.
	FS() *cfs.FS

	// Work burns roughly `units` calibrated units of CPU outside any
	// scheduling decision (compute runs in parallel under DMT; only
	// synchronization is serialized).
	Work(units int)

	// Killed reports whether the process is being torn down; long-running
	// loops should poll it and return.
	Killed() bool

	// Now returns the current time. Under DMT runtimes it is
	// *deterministic* — derived from the logical clock, identical across
	// replicas — implementing §6.1's suggestion of treating time reads
	// as determinizable inputs rather than raw gettimeofday calls. The
	// baseline runtime returns physical time.
	Now() time.Time
}

// Handle identifies a spawned thread for Join.
type Handle interface{ handle() }

// Mutex is pthread_mutex_t.
type Mutex interface {
	Lock(t T)
	Unlock(t T)
	TryLock(t T) bool
}

// Cond is pthread_cond_t.
type Cond interface {
	Wait(t T, m Mutex)
	Signal(t T)
	Broadcast(t T)
}

// RWMutex is pthread_rwlock_t.
type RWMutex interface {
	RLock(t T)
	RUnlock(t T)
	Lock(t T)
	Unlock(t T)
}

// Barrier is Parrot's soft-barrier performance hint. Arrive may release
// immediately (hint ignored), on group fill, or on deterministic timeout —
// never affecting program logic.
type Barrier interface {
	Arrive(t T)
}

// Listener accepts client connections.
type Listener interface {
	// Poll reports whether a connection is pending, waiting up to the
	// hint duration (runtimes may interpret the hint loosely; under full
	// CRANE readiness is a deterministic property of the Paxos sequence).
	Poll(t T, hint time.Duration) bool
	// Accept blocks until a client connection arrives.
	Accept(t T) (Conn, error)
	// Close unbinds the listener.
	Close() error
}

// Conn is one accepted client connection.
type Conn interface {
	// ID is the connection's replica-consistent identity.
	ID() uint64
	// Recv blocks until client data arrives; it returns io.EOF once the
	// client has closed and all data is consumed.
	Recv(t T, buf []byte) (int, error)
	// Send transmits data to the client (on backups, CRANE logs and
	// drops it, §2.1).
	Send(t T, data []byte) (int, error)
	// Close releases the server side of the connection.
	Close(t T) error
}

// App is a server program's main-thread body.
type App func(t T)

// Instance is one replica-local instantiation of a server program.
type Instance interface {
	// Run is the program's main thread.
	Run(t T)
	// Snapshot serializes the program's in-memory state at a quiescent
	// point (the CRIU substitution; file state is checkpointed separately
	// through the container filesystem).
	Snapshot() ([]byte, error)
	// Restore reinstates a snapshot into a freshly created instance
	// before Run is invoked on a recovered replica.
	Restore([]byte) error
}

// ConflictMap is a program's declaration of its commutativity structure —
// the conflict-aware parallelism of "Rethinking State-Machine Replication
// for Parallelism" (Marandi et al.) surfaced as a first-class API. A
// program that declares one states: requests routed to different lanes
// never conflict except through explicitly cross-lane (unbound)
// synchronization objects, so the runtime may execute the lanes'
// deterministic schedules concurrently. Programs with no declaration run
// on a single lane, which is the migration path: declare nothing, observe
// identical schedules, then add lane partitioning incrementally.
//
// Which lane a connection runs on is not the program's to choose: it is
// Program.ConnClass, the one partition function the deployment also orders
// by. The program partitions its own state to match (httpd serves disjoint
// static paths per connection, mongoose partitions per connection).
type ConflictMap struct {
	// MaxUseful is the number of genuinely independent key ranges the
	// program partitions its state into — the lane count beyond which
	// added lanes only add cross-lane synchronization. A deployment
	// requesting more lanes is clamped to it (EffectiveLanes): a
	// cross-lane mutex acquire waits for every other lane's bubble-paced
	// merge stamp, a cost that grows with the lane count, so running
	// eight lanes over two independent ranges is strictly worse than
	// running two (the 8-lane MySQL regression in BENCH_lanes.json).
	// Zero means unlimited.
	MaxUseful int
}

// Program describes a deployable server program.
type Program struct {
	// Name labels logs and benchmarks.
	Name string
	// Ports are the listening ports the program binds.
	Ports []int
	// Install populates the installation directory in the container
	// filesystem before the base snapshot is taken.
	Install func(fs *cfs.FS)
	// New creates a fresh instance bound to the replica's filesystem.
	New func(fs *cfs.FS) Instance
	// Conflict declares the program's conflict structure. Nil means
	// undeclared: the deployment forces a single lane regardless of its
	// configured lane count.
	Conflict *ConflictMap
}

// ConnClass is the one partition function of a deployment: it maps a
// connection to one of n classes, and the class names both the Paxos group
// that orders the connection's socket calls (n = Config.Groups) and the
// execution lane that runs them (n = the effective lane count). It is fixed
// before ordering and a pure function of its arguments; connection ids are
// replica-consistent under CRANE, so every replica computes the same class.
// With as many lanes as groups, group g orders exactly what lane g executes.
// n must be at least 1.
func (p *Program) ConnClass(connID uint64, n int) int {
	return int(connID % uint64(n))
}

// EffectiveLanes clamps a deployment's requested lane count to what the
// program declared: 1 when it has no ConflictMap (the safe fallback),
// the ConflictMap's MaxUseful when one is declared and exceeded, the
// requested count otherwise.
func (p *Program) EffectiveLanes(requested int) int {
	if requested < 1 {
		requested = 1
	}
	if p.Conflict == nil {
		return 1
	}
	if p.Conflict.MaxUseful > 0 && requested > p.Conflict.MaxUseful {
		return p.Conflict.MaxUseful
	}
	return requested
}

// FuncInstance adapts a bare App into an Instance with no process state.
type FuncInstance struct{ Main App }

// Run implements Instance.
func (f FuncInstance) Run(t T) { f.Main(t) }

// Snapshot implements Instance (stateless).
func (FuncInstance) Snapshot() ([]byte, error) { return nil, nil }

// Restore implements Instance (stateless).
func (FuncInstance) Restore([]byte) error { return nil }
