// This file exercises the flight-journal half of the obsreg check: in a
// package held to the zero-alloc journaling discipline, the allocating
// Journal.Note path is banned inside loops — the DMT scheduler and the
// sequence layer emit an event per turn, so per-iteration annotations
// would put an allocation on the determinism hot path. Journal.Emit is
// the fixed-arity fast path and stays legal everywhere. The test loads
// this package as crane/internal/seq, one of the hot packages.
package obsreg

import "crane/internal/obs/flight"

// SetupNote annotates outside any loop: no findings.
func SetupNote(j *flight.Journal) {
	j.Note(flight.EvViewChange, 0, 2, 1, "view=2 primary=1")
}

// LoopEmit journals per iteration through the zero-alloc fast path: no
// findings.
func LoopEmit(j *flight.Journal, n uint64) {
	for i := uint64(0); i < n; i++ {
		j.Emit(flight.EvTick, i, flight.PosUnchanged, i, 0)
	}
}

// LoopNote allocates an annotation per iteration.
func LoopNote(j *flight.Journal, n uint64) {
	for i := uint64(0); i < n; i++ {
		j.Note(flight.EvViewChange, i, i, 0, "per-iteration") // want `Journal\.Note inside a determinism hot loop`
	}
}

// RangeNote allocates per ranged element.
func RangeNote(j *flight.Journal, stamps []uint64) {
	for _, s := range stamps {
		j.Note(flight.EvCheckpoint, s, s, 0, "per-element") // want `Journal\.Note inside a determinism hot loop`
	}
}
