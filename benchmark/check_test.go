package main

import (
	"strings"
	"testing"

	"crane/internal/trace"
)

func ev(conn uint64, data string) trace.Event { return trace.Event{Conn: conn, Data: []byte(data)} }

// Per-connection streams must compare equal when replicas interleave
// connections differently (lanes, groups) or split a stream into
// different writes, and unequal when any connection's bytes differ.
func TestConnStreamsIgnoreInterleavingOnly(t *testing.T) {
	a := connStreams([]trace.Event{ev(1, "he"), ev(2, "wor"), ev(1, "llo"), ev(2, "ld")})
	b := connStreams([]trace.Event{ev(2, "world"), ev(1, "hello")})
	if diffs := diffConnStreams("a", a, "b", b); len(diffs) != 0 {
		t.Errorf("same bytes per connection reported as different: %v", diffs)
	}
	c := connStreams([]trace.Event{ev(2, "world"), ev(1, "hellO")})
	if diffs := diffConnStreams("a", a, "c", c); len(diffs) != 1 || !strings.Contains(diffs[0], "conn 0x1") {
		t.Errorf("one differing connection, got %v", diffs)
	}
	// Reordering bytes within one connection is a divergence.
	d := connStreams([]trace.Event{ev(1, "llo"), ev(1, "he"), ev(2, "world")})
	if diffs := diffConnStreams("a", a, "d", d); len(diffs) != 1 {
		t.Errorf("reordered stream on conn 1, got %v", diffs)
	}
	e := connStreams([]trace.Event{ev(1, "hello")})
	if diffs := diffConnStreams("a", a, "e", e); len(diffs) != 1 || !strings.Contains(diffs[0], "nothing") {
		t.Errorf("missing connection, got %v", diffs)
	}
	if diffs := diffConnStreams("e", e, "a", a); len(diffs) != 1 {
		t.Errorf("extra connection, got %v", diffs)
	}
}
