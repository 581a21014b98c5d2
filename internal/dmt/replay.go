package dmt

// Schedule recording and replay: the record-replay application of §6.2
// (CRANE's determinism benefits record-replay systems) and the mechanism
// behind Rex-style "execute-agree-follow" replication (§8), where the
// primary records its thread interleavings and backups replay them.
//
// Recording captures the total order of scheduled operations as a sequence
// of thread ids (application threads only — the idle thread's rotations
// are unobservable padding). Replay drives a second scheduler to execute
// the exact same order: at each step the scripted thread is promoted to
// the run-queue head before the token moves. Because every wake-up that
// makes a thread runnable is itself a scheduled operation, a legal
// recording always names a currently-runnable thread; an impossible script
// (from a diverged program) is detected rather than deadlocking.

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Schedule is a recorded total order of application-thread operations.
type Schedule struct {
	mu      sync.Mutex
	threads []int32
	ops     []byte
	clocks  []uint64 // lane clock at each op (divergence diagnostics)
}

// Len returns the number of recorded operations.
func (sc *Schedule) Len() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.threads)
}

// Step returns the (thread, op) at position i.
func (sc *Schedule) Step(i int) (thread int, op byte) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return int(sc.threads[i]), sc.ops[i]
}

// StepClock returns the lane clock recorded at position i.
func (sc *Schedule) StepClock(i int) uint64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.clocks[i]
}

func (sc *Schedule) append(thread int, op byte, clock uint64) {
	sc.mu.Lock()
	sc.threads = append(sc.threads, int32(thread))
	sc.ops = append(sc.ops, op)
	sc.clocks = append(sc.clocks, clock)
	sc.mu.Unlock()
}

// StartRecording begins capturing the schedule. Call before Start.
// Recording captures one total order, so it requires the single-lane
// configuration (record with 1 lane; SetLanes and recording are mutually
// exclusive).
func (s *Scheduler) StartRecording() *Schedule {
	sc := &Schedule{}
	s.mu.Lock()
	if s.lanes != nil || s.group != nil {
		s.mu.Unlock()
		panic("dmt: StartRecording requires the single-lane configuration")
	}
	s.recording = sc
	s.mu.Unlock()
	return sc
}

// SetReplay makes the scheduler follow a recorded schedule. Call before
// Start. Thread identity is creation order, so the replaying program must
// spawn threads in the same order as the recorded one (guaranteed when it
// is the same program).
func (s *Scheduler) SetReplay(sc *Schedule) {
	s.mu.Lock()
	if s.lanes != nil || s.group != nil {
		s.mu.Unlock()
		panic("dmt: SetReplay requires the single-lane configuration")
	}
	s.replay = sc
	s.replayPos = 0
	s.mu.Unlock()
}

// ErrReplayDiverged is the panic value delivered when the replaying
// program's behaviour is inconsistent with the script.
var ErrReplayDiverged = errors.New("dmt: replay diverged from recorded schedule")

// recordLocked appends an op to the recording, if enabled. Caller holds
// s.mu. Idle-thread operations are excluded (they are padding whose count
// varies with physical timing).
func (s *Scheduler) recordLocked(t *Thread, op byte) {
	if s.recording != nil && !t.isIdle {
		s.recording.append(t.id, op, s.clock)
	}
}

// replayReorderLocked promotes the scripted next thread to the run-queue
// head. Called after each rotation point while replaying; caller holds
// s.mu. The current head has already been removed or re-queued.
func (s *Scheduler) replayReorderLocked() {
	if s.replay == nil {
		return
	}
	if s.replayPos >= s.replay.Len() {
		return // script exhausted: fall back to round-robin
	}
	want, _ := s.replay.Step(s.replayPos)
	// Find the scripted thread in the run queue and move it to the front.
	for i := 0; i < s.rlen; i++ {
		if s.runqAt(i).id == want {
			s.runqMoveToFrontLocked(i)
			return
		}
	}
	// Not runnable: either it is the idle thread's turn in the original
	// (excluded from scripts) or the program diverged. Let the idle thread
	// run if present — its operations do not consume script positions.
	for i := 0; i < s.rlen; i++ {
		if s.runqAt(i).isIdle {
			s.runqMoveToFrontLocked(i)
			return
		}
	}
	// No idle thread and the scripted thread is blocked: divergence.
	if s.replayErr == nil {
		s.replayErr = fmt.Errorf("%w: step %d wants blocked thread %d",
			ErrReplayDiverged, s.replayPos, want)
		s.killLocked()
	}
}

// replayAdvanceLocked consumes one script position for an application
// thread's operation and verifies it matches. On mismatch the scheduler
// records the divergence and tears itself down (threads unwind through
// their absorbed kill panics); ReplayError reports it. Caller holds s.mu.
func (s *Scheduler) replayAdvanceLocked(t *Thread, op byte) {
	if s.replay == nil || t.isIdle || s.replayErr != nil {
		return
	}
	if s.replayPos >= s.replay.Len() {
		return
	}
	want, wantOp := s.replay.Step(s.replayPos)
	if want != t.id || (wantOp != 0 && wantOp != op) {
		s.replayErr = fmt.Errorf("%w: step %d recorded (thread %d, op %c), got (thread %d, op %c)",
			ErrReplayDiverged, s.replayPos, want, wantOp, t.id, op)
		s.killLocked()
		return
	}
	s.replayPos++
}

// ReplayError returns the divergence error, if replay detected one.
func (s *Scheduler) ReplayError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replayErr
}

// ReplayDone reports whether the whole script has been consumed.
func (s *Scheduler) ReplayDone() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replay != nil && s.replayPos >= s.replay.Len()
}

// WaitReplayDone blocks until the script is consumed or the timeout
// elapses; it reports success.
func (s *Scheduler) WaitReplayDone(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.ReplayDone() {
			return true
		}
		time.Sleep(200 * time.Microsecond)
	}
	return s.ReplayDone()
}
