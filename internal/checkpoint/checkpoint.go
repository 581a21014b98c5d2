// Package checkpoint implements §5.2: periodic checkpoint and restore of a
// replicated server. The original uses CRIU for process state and LXC for
// filesystem state; this reproduction substitutes (a) an application
// snapshot interface for CRIU (the checkpoint contract is identical: an
// opaque process image bound to a Paxos global index) and (b) cfs patches
// against a base snapshot for LXC's incremental "diff --text" checkpoints.
//
// The paper's quiescence trick is reproduced exactly: checkpointing TCP
// stacks is avoided by waiting until the server has no alive connections,
// backing off and retrying if it does.
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"crane/internal/cfs"
)

// Process is the checkpointable server process (the CRIU substitution).
// Snapshot must only be called while the process is quiescent.
type Process interface {
	// Quiescent reports whether the process has no alive client
	// connections (§5.2's observation that even busy servers have idle
	// moments).
	Quiescent() bool
	// Snapshot serializes the full process state.
	Snapshot() ([]byte, error)
	// Restore reinstates a state produced by Snapshot.
	Restore([]byte) error
}

// Checkpoint is a complete replica image: process state plus an
// incremental filesystem patch, bound to the global consensus index from
// which re-execution resumes.
type Checkpoint struct {
	Index   uint64 // Paxos global index at capture time
	Process []byte // CRIU stand-in: serialized process state
	FSPatch cfs.Patch
	Taken   time.Time
	// GroupIndexes are the per-group consensus indexes at capture time,
	// one per Paxos group of the deployment (Index is group 0's). Each
	// group of a restored replica catches up from its own. Quiescence
	// makes the vector consistent: no admitted input is in flight in any
	// group while the capture runs. Set by crane.Replica.Checkpoint; the
	// Checkpointer itself knows nothing of groups.
	GroupIndexes []uint64
	// GroupWatermarks is the cross-group merge's watermark vector at
	// capture time, one per group. A restored replica resumes its merge
	// from this vector so post-restore stamp bumps replay exactly as the
	// live replicas computed them.
	GroupWatermarks []uint64
}

// Timings records the four cost components of Table 2.
type Timings struct {
	CheckpointProcess time.Duration // "C p"
	RestoreProcess    time.Duration // "R p"
	CheckpointFS      time.Duration // "C fs"
	RestoreFS         time.Duration // "R fs"
	FSPatchBytes      int
	Retries           int // quiescence back-offs before capture
}

// ErrNotQuiescent is returned when the process never becomes quiescent
// within the configured retries.
var ErrNotQuiescent = errors.New("checkpoint: process never quiescent")

// Options configures a Checkpointer.
type Options struct {
	// Backoff is how long to wait before re-checking quiescence
	// (the paper backs off "a few seconds"; tests scale down).
	Backoff time.Duration
	// MaxRetries bounds quiescence retries. Zero means 100.
	MaxRetries int
}

// Checkpointer captures and restores replica images.
type Checkpointer struct {
	opts Options
}

// New creates a Checkpointer.
func New(opts Options) *Checkpointer {
	if opts.Backoff == 0 {
		opts.Backoff = 10 * time.Millisecond
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 100
	}
	return &Checkpointer{opts: opts}
}

// Capture takes a checkpoint of proc and fs (diffed against base) at the
// given global index, waiting for quiescence first. index must be read by
// the caller while the process is paused at a consensus boundary.
func (c *Checkpointer) Capture(proc Process, fs *cfs.FS, base *cfs.Snapshot, index func() uint64) (*Checkpoint, *Timings, error) {
	tm := &Timings{}
	for !proc.Quiescent() {
		tm.Retries++
		if tm.Retries > c.opts.MaxRetries {
			return nil, tm, ErrNotQuiescent
		}
		time.Sleep(c.opts.Backoff)
	}
	start := time.Now()
	procImg, err := proc.Snapshot()
	if err != nil {
		return nil, tm, fmt.Errorf("checkpoint: process snapshot: %w", err)
	}
	idx := index()
	tm.CheckpointProcess = time.Since(start)

	start = time.Now()
	patch := fs.Diff(base)
	tm.CheckpointFS = time.Since(start)
	tm.FSPatchBytes = patch.Bytes()

	return &Checkpoint{
		Index:   idx,
		Process: procImg,
		FSPatch: *patch,
		Taken:   time.Now(), //crane:detflow-ok capture wall-clock stamp, diagnostics only
	}, tm, nil
}

// TryCapture is the single-attempt form of Capture for hot paths that
// cannot afford to block: it fails immediately with ErrNotQuiescent
// instead of backing off and retrying. The speculation layer uses it to
// opportunistically advance its rollback boundary between bursts — a miss
// just means the boundary advances on a later, quieter attempt.
func (c *Checkpointer) TryCapture(proc Process, fs *cfs.FS, base *cfs.Snapshot, index func() uint64) (*Checkpoint, *Timings, error) {
	tm := &Timings{}
	if !proc.Quiescent() {
		return nil, tm, ErrNotQuiescent
	}
	start := time.Now()
	procImg, err := proc.Snapshot()
	if err != nil {
		return nil, tm, fmt.Errorf("checkpoint: process snapshot: %w", err)
	}
	idx := index()
	tm.CheckpointProcess = time.Since(start)

	start = time.Now()
	patch := fs.Diff(base)
	tm.CheckpointFS = time.Since(start)
	tm.FSPatchBytes = patch.Bytes()

	return &Checkpoint{
		Index:   idx,
		Process: procImg,
		FSPatch: *patch,
		Taken:   time.Now(), //crane:detflow-ok capture wall-clock stamp, diagnostics only
	}, tm, nil
}

// RestoreFS materializes the checkpointed filesystem: fresh base + patch.
func (c *Checkpointer) RestoreFS(ck *Checkpoint, base *cfs.Snapshot) (*cfs.FS, time.Duration, error) {
	start := time.Now()
	fs := base.NewFS()
	if err := fs.Apply(&ck.FSPatch); err != nil {
		return nil, 0, fmt.Errorf("checkpoint: fs restore: %w", err)
	}
	return fs, time.Since(start), nil
}

// RestoreProcess reinstates the process image into proc.
func (c *Checkpointer) RestoreProcess(ck *Checkpoint, proc Process) (time.Duration, error) {
	start := time.Now()
	if err := proc.Restore(ck.Process); err != nil {
		return 0, fmt.Errorf("checkpoint: process restore: %w", err)
	}
	return time.Since(start), nil
}

// Encode serializes the checkpoint for shipping to a recovering replica.
func (ck *Checkpoint) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode deserializes a shipped checkpoint.
func Decode(b []byte) (*Checkpoint, error) {
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	return &ck, nil
}
