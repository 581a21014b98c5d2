//go:build !linux

package hrtimer

// newSource returns the runtime-timer source: same semantics, the runtime's
// resolution.
func newSource() source { return newRuntimeSource() }
