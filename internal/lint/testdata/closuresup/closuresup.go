// Package closuresup exercises declaration-line suppression covering
// closures declared within the annotated declaration's span. The test
// loads it under an internal/apps import path.
package closuresup

import "time"

// measure returns a probe closure; the annotation on the declaration
// covers the time.Now inside the closure body below, so the harness
// helper needs one reasoned escape, not one per closure line.
//
//crane:nondet-ok harness-side probe, never replicated traffic
func measure() func() int64 {
	return func() int64 {
		return time.Now().UnixNano()
	}
}

// unannotated is the control: same shape, no annotation.
func unannotated() func() int64 {
	return func() int64 {
		return time.Now().UnixNano() // want `time\.Now reads physical time`
	}
}
