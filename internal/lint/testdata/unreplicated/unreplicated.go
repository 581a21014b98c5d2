// Package unreplicated uses raw concurrency and time without being under
// internal/apps: the nondet analyzer must stay silent (infrastructure below the interposition layer is
// allowed — it IS the interposition layer).
package unreplicated

import (
	"sync"
	"time"
)

// Pool is infrastructure-style code: raw sync is fine here.
type Pool struct {
	mu    sync.Mutex
	items []int
}

// Put appends under the raw lock.
func (p *Pool) Put(v int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.items = append(p.items, v)
}

// Stamp reads physical time.
func Stamp() time.Time {
	go func() {}()
	return time.Now()
}
