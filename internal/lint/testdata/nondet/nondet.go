// Package nondet exercises the nondet analyzer: every raw source of
// nondeterminism that must be routed through papi in replicated code.
// The test loads it under an internal/apps import path, which is what
// makes it replicated.
package nondet

import (
	"fmt"
	"math/rand" // want `import of math/rand is nondeterministic across replicas`
	"net"       // want `direct net use bypasses the replicated socket layer`
	"sort"
	"sync" // marker import; individual uses are flagged below
	"time"
)

// Server models a replicated server holding raw sync state.
type Server struct {
	mu      sync.Mutex // want `raw sync\.Mutex bypasses the DMT scheduler; use papi\.Mutex via T\.NewMutex`
	counter uint64

	// Annotated escape: the declaration-line suppression below covers
	// every call site on this field as well.
	//crane:nondet-ok snapshot-only state, accessed at quiescent points
	snapMu sync.Mutex
}

// Handle mutates state under a raw lock and spawns raw goroutines.
func (s *Server) Handle() {
	s.mu.Lock() // want `call on raw sync\.Mutex is invisible to the DMT scheduler`
	s.counter++
	s.mu.Unlock() // want `call on raw sync\.Mutex is invisible to the DMT scheduler`

	s.snapMu.Lock() // suppressed via the field-declaration annotation
	s.snapMu.Unlock()

	go s.background() // want `raw go statement creates a thread outside the DMT schedule; use papi\.T\.Spawn`

	ch := make(chan int, 1)
	select { // want `select resolves nondeterministically`
	case v := <-ch:
		_ = v
	default:
	}
}

func (s *Server) background() {}

// Timestamps reads physical time three ways.
func Timestamps() time.Duration {
	t0 := time.Now()               // want `time\.Now reads physical time, which diverges across replicas; use papi\.T\.Now`
	<-time.After(time.Millisecond) // want `time\.After reads physical time`
	return time.Since(t0)          // want `time\.Since reads physical time`
}

// SuppressedTime is a deliberate, annotated escape.
func SuppressedTime() time.Time {
	return time.Now() //crane:nondet-ok harness-side wall clock for log labels only
}

// RandID draws from the raw global PRNG (import already flagged above).
func RandID() int {
	return rand.Intn(100)
}

// DialOut uses the raw network (import already flagged above).
func DialOut() error {
	c, err := net.Dial("tcp", "localhost:80")
	if err != nil {
		return err
	}
	return c.Close()
}

// EmitTable iterates a map and writes entries to output in iteration
// order: the order escapes, diverging across replicas.
func EmitTable(m map[string]int) string {
	out := ""
	for k, v := range m { // want `map iteration order is nondeterministic and escapes this loop`
		out += fmt.Sprintf("%s=%d\n", k, v)
	}
	return out
}

// SortedTable uses the sorted-keys idiom: allowed.
func SortedTable(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// LocalOnly keeps iteration effects inside the loop: allowed.
func LocalOnly(m map[string]int) int {
	max := 0
	for _, v := range m {
		local := v * 2
		if local > 0 {
			_ = local
		}
	}
	return max
}
