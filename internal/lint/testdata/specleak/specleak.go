// Package specleak exercises the speculation-gate analyzer: in gated
// code, externally visible effects (socket writes, output-log records,
// WAL appends) must route through the speculator so an open window can
// buffer them — direct calls are leaks no rollback can recall. The test
// loads it as crane/internal/crane, the gated package.
package specleak

import (
	"crane/internal/simnet"
	"crane/internal/trace"
	"crane/internal/wal"
)

// LeakWrite sends bytes to a client around the gate buffer.
func LeakWrite(c *simnet.Conn, b []byte) {
	c.Write(b) // want `simnet\.Conn\.Write bypasses the speculation gate`
}

// LeakRecord stamps the cross-replica output fingerprint directly.
func LeakRecord(l *trace.OutputLog, conn uint64, b []byte) {
	l.Record(conn, b) // want `trace\.OutputLog\.Record bypasses the speculation gate`
}

// LeakAppend makes a possibly-aborted effect durable.
func LeakAppend(w *wal.Log, rec wal.Record) error {
	return w.Append(rec) // want `wal\.Log\.Append bypasses the speculation gate`
}

// LeakAppendBatch is the batched variant of the same leak.
func LeakAppendBatch(w *wal.Log, recs []wal.Record) error {
	return w.AppendBatch(recs) // want `wal\.Log\.AppendBatch bypasses the speculation gate`
}

// SuppressedWrite is a deliberate, annotated escape: no finding.
func SuppressedWrite(c *simnet.Conn, b []byte) {
	c.Write(b) //crane:specleak-ok exercised only before any window can open
}

// ReadsAreFine consumes input; only effect-producing calls are gated.
func ReadsAreFine(c *simnet.Conn, b []byte) (int, error) {
	return c.Read(b)
}
