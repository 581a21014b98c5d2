// Package atomicmix exercises the atomicmix analyzer: every call to an
// address-based sync/atomic function is flagged with its typed
// replacement; the typed atomics themselves stay silent.
package atomicmix

import (
	"sync/atomic"
	"unsafe"
)

// stats is a mirror struct under test.
type stats struct {
	clock uint64
	ticks int32
	head  unsafe.Pointer
	typed atomic.Uint64
}

// Bump publishes clock through the address-based API.
func (s *stats) Bump() {
	atomic.AddUint64(&s.clock, 1) // want `atomic\.AddUint64 lets the word be read and written plainly elsewhere; declare it as atomic\.Uint64`
}

// ReadClock observes clock through the address-based API.
func (s *stats) ReadClock() uint64 {
	return atomic.LoadUint64(&s.clock) // want `atomic\.LoadUint64 .*declare it as atomic\.Uint64`
}

// Claim is a compare-and-swap on a signed word.
func (s *stats) Claim() bool {
	return atomic.CompareAndSwapInt32(&s.ticks, 0, 1) // want `atomic\.CompareAndSwapInt32 .*declare it as atomic\.Int32`
}

// Publish swaps a raw pointer.
func (s *stats) Publish(p unsafe.Pointer) {
	atomic.StorePointer(&s.head, p) // want `atomic\.StorePointer .*declare it as atomic\.Pointer\[T\]`
}

// Typed uses the typed atomic: silent.
func (s *stats) Typed() uint64 {
	s.typed.Add(1)
	return s.typed.Load()
}

// Quiescent is a deliberate, annotated escape.
func (s *stats) Quiescent() uint64 {
	return atomic.LoadUint64(&s.clock) //crane:atomicmix-ok fixture: the annotation covers the line
}
