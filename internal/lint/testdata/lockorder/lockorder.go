// Package lockorder reproduces the dmt consumed-hook lock-order inversion
// that PR 3's atomic clock mirror worked around: a scheduler invokes a
// registered hook while holding its own mutex, and the hook's owner calls
// back into a scheduler method that takes that mutex while holding its
// own lock. The static analyzer must close the cycle through both the
// hook-field indirection and the setter-parameter indirection.
package lockorder

import "sync"

// Sched stands in for dmt.Scheduler: a logical clock under a mutex and a
// consumed hook fired with the mutex held.
type Sched struct {
	mu       sync.Mutex
	clock    uint64
	consumed func(uint64)
}

// SetConsumedHook stores the hook (the setter-parameter indirection).
func (s *Sched) SetConsumedHook(fn func(uint64)) {
	s.mu.Lock()
	s.consumed = fn
	s.mu.Unlock()
}

// Clock reads the logical clock under the mutex — the call the PR 3
// workaround replaced with an atomic mirror.
func (s *Sched) Clock() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clock
}

// Tick advances the clock and fires the hook under s.mu.
func (s *Sched) Tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock++
	if s.consumed != nil {
		s.consumed(s.clock)
	}
}

// Checker stands in for the observability consumer holding its own lock.
type Checker struct {
	mu   sync.Mutex
	last uint64
}

// Attach registers the callback.
func (c *Checker) Attach(s *Sched) {
	s.SetConsumedHook(c.onConsumed)
}

// onConsumed runs under Sched.mu and takes Checker.mu: one direction.
func (c *Checker) onConsumed(v uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last = v
}

// Snapshot takes Checker.mu and calls back into Sched.Clock, which takes
// Sched.mu: the other direction, closing the cycle.
func (c *Checker) Snapshot(s *Sched) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last + s.Clock() // want `lock-order cycle \(potential deadlock\): lockorder\.Checker\.mu -> lockorder\.Sched\.mu -> lockorder\.Checker\.mu`
}

// ConsistentPair takes two locks in one global order everywhere: no cycle.
type ConsistentPair struct {
	a, b sync.Mutex
	n    int
}

// Both takes a then b.
func (p *ConsistentPair) Both() {
	p.a.Lock()
	defer p.a.Unlock()
	p.b.Lock()
	defer p.b.Unlock()
	p.n++
}

// BothAgain also takes a then b.
func (p *ConsistentPair) BothAgain() {
	p.a.Lock()
	p.b.Lock()
	p.n++
	p.b.Unlock()
	p.a.Unlock()
}

// Rec is the mutual-recursion case: A and B call each other, so whichever
// of them a bottom-up summary reaches second must still see the other's
// locks. C reaches a only through B; D takes a then x; the cycle a -> x ->
// a exists only if B's lock set includes a.
type Rec struct {
	a, x, y sync.Mutex
}

// A takes a and calls B.
func (r *Rec) A() {
	r.a.Lock()
	defer r.a.Unlock()
	r.B()
}

// B calls A.
func (r *Rec) B() { r.A() }

// C holds x and calls B, which reaches A and takes a.
func (r *Rec) C() {
	r.x.Lock()
	defer r.x.Unlock()
	r.B()
}

// D takes a, then x.
func (r *Rec) D() {
	r.a.Lock()
	defer r.a.Unlock()
	r.x.Lock() // want `lock-order cycle \(potential deadlock\): lockorder\.Rec\.a -> lockorder\.Rec\.x -> lockorder\.Rec\.a`
	defer r.x.Unlock()
}

// E holds y and calls A: an edge y -> a, no cycle.
func (r *Rec) E() {
	r.y.Lock()
	defer r.y.Unlock()
	r.A()
}
