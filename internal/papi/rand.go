package papi

// Rand is a deterministic seeded PRNG for replicated code. math/rand is
// banned inside the interposition boundary (its global source is seeded
// differently per process and its lock interleaving is schedule-visible);
// Rand gives every replica that seeds it identically an identical stream.
// The core is SplitMix64, which passes BigCrush and needs no allocation.
//
// Rand is intentionally not safe for concurrent use: sharing a PRNG
// across threads would make the stream depend on the schedule. Give each
// thread its own instance seeded from its deterministic thread identity.
type Rand struct {
	state uint64
}

// NewRand returns a PRNG seeded with seed. Equal seeds yield equal
// streams on every replica and platform.
func NewRand(seed int64) *Rand {
	return &Rand{state: uint64(seed)}
}

// Uint64 returns the next value of the stream (SplitMix64 step).
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns a non-negative int64.
func (r *Rand) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a value in [0, n). It panics if n <= 0, matching
// math/rand. The modulo bias is below 2^-40 for any n that fits an int
// and is irrelevant for workload generation.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("papi: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}
