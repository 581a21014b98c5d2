// Package detflow exercises the interprocedural detflow analyzer: the
// nondeterministic value, not its use site, is what gets tracked, and a
// finding fires only where the value crosses a determinism sink.
package detflow

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"time"

	"crane/internal/trace"
)

var out = trace.NewOutputLog("fixture")

// stamp is the source, two hops from the sink.
func stamp() int64 { return time.Now().UnixNano() }

// tag launders the timestamp through formatting: after this hop the value
// is a plain string with no textual tie to package time.
func tag(v int64) string { return fmt.Sprintf("v=%d", v) }

// emit is the sink hop.
func emit(s string) {
	out.Record(1, []byte(s)) // want `nondeterministic value \(time\.Now at [^)]+\) reaches trace\.OutputLog\.Record via detflow\.stamp → detflow\.tag → detflow\.Chain → detflow\.emit`
}

// Chain wires the three hops together.
func Chain() { emit(tag(stamp())) }

// holder carries an environment-derived label through a struct field.
type holder struct{ label string }

// fill taints the field.
func fill(h *holder) { h.label = os.Getenv("CRANE_LABEL") }

// flush sinks the field.
func flush(h *holder) {
	out.Record(2, []byte(h.label)) // want `nondeterministic value \(os\.Getenv at [^)]+\) reaches trace\.OutputLog\.Record`
}

// emitMap writes entries in map iteration order.
func emitMap(m map[string]int) {
	for k := range m {
		out.Record(3, []byte(k)) // want `nondeterministic value \(map iteration order at [^)]+\) reaches trace\.OutputLog\.Record`
	}
}

// emitSorted uses the sorted-keys idiom: the sort erases the iteration
// order, so no finding.
func emitSorted(m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out.Record(4, []byte(k))
	}
}

// emitClosure launders the timestamp through a captured variable.
func emitClosure() {
	v := time.Now().UnixNano()
	f := func() {
		out.Record(5, []byte(fmt.Sprint(v))) // want `nondeterministic value \(time\.Now at [^)]+\) reaches trace\.OutputLog\.Record`
	}
	f()
}

// emitPtr leaks an address via %p: differs per process, so per replica.
func emitPtr(h *holder) {
	out.Record(6, []byte(fmt.Sprintf("%p", h))) // want `nondeterministic value \(pointer formatting at [^)]+\) reaches trace\.OutputLog\.Record`
}

// emitSuppressed is a deliberate, annotated escape.
func emitSuppressed() {
	out.Record(7, []byte(tag(stamp()))) //crane:detflow-ok harness label, normalizer masks timestamps
}

// localStamp reads time but never crosses a sink: detflow stays silent
// where the pattern matcher would have flagged the call site.
func localStamp() string { return time.Now().String() }

// clock is the interposition seam in miniature: callers see only the
// interface, the source read sits in a concrete method behind it.
type clock interface{ Now() int64 }

type wallClock struct{}

// Now reads physical time behind the interface.
func (wallClock) Now() int64 { return time.Now().UnixNano() }

// emitVia sinks whatever the clock returns: the engine must dispatch the
// interface call to wallClock.Now to see the source.
func emitVia(c clock) {
	out.Record(8, []byte(fmt.Sprint(c.Now()))) // want `nondeterministic value \(time\.Now at [^)]+\) reaches trace\.OutputLog\.Record via detflow\.wallClock\.Now → detflow\.emitVia`
}

// emitBuffer formats the timestamp into a buffer and sinks the buffer's
// bytes: Fprintf taints the writer it writes to.
func emitBuffer() {
	var b bytes.Buffer
	fmt.Fprintf(&b, "at=%d", time.Now().UnixNano())
	out.Record(9, b.Bytes()) // want `nondeterministic value \(time\.Now at [^)]+\) reaches trace\.OutputLog\.Record via detflow\.emitBuffer`
}
