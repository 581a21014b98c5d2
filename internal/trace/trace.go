// Package trace records a replica's network outputs for the consistency
// experiments of §7.2: the order and contents of all outgoing socket calls
// are logged per replica and diffed across replicas. Network outputs imply
// a server's execution state — including outcomes of ad-hoc
// synchronization — which synchronization schedules alone cannot capture.
//
// Like the paper (whose logs matched "except physical times in the
// responded HTTP headers"), the log can normalize away designated
// volatile spans (e.g. Date: headers) before comparison.
package trace

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"sync"
)

// Event is one outgoing socket call.
type Event struct {
	Seq  int    // per-replica output sequence number
	Conn uint64 // connection id
	Data []byte
}

// OutputLog is a per-replica ordered log of network outputs.
type OutputLog struct {
	mu         sync.Mutex
	name       string
	events     []Event
	normalizer *regexp.Regexp
}

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewOutputLog creates a log named after its replica.
func NewOutputLog(name string) *OutputLog {
	return &OutputLog{name: name}
}

// SetNormalizer installs a regexp whose matches are masked before
// comparison (the paper's "except physical times" carve-out).
func (l *OutputLog) SetNormalizer(re *regexp.Regexp) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.normalizer = re
}

// fold folds data into the running FNV-1a hash h.
func fold(h uint64, data []byte) uint64 {
	for _, b := range data {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}

// Digest returns the FNV-1a hash of one output's bytes: the value a
// replica's flight journal records for each output it sends.
func Digest(data []byte) uint64 { return fold(fnvOffset, data) }

// hashEvent folds one event into the running FNV-1a hash, using the same
// framing Fingerprint historically used: "conn|" + data + NUL. The
// decimal connection id is formatted into a stack buffer, so hashing
// allocates nothing.
func hashEvent(h, conn uint64, data []byte) uint64 {
	var buf [21]byte // 20 decimal digits of a uint64, then '|'
	h = fold(h, append(strconv.AppendUint(buf[:0], conn, 10), '|'))
	h = fold(h, data)
	return (h ^ 0) * fnvPrime // trailing NUL separator
}

// Record appends one outgoing socket call.
func (l *OutputLog) Record(conn uint64, data []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, Event{
		Seq:  len(l.events),
		Conn: conn,
		Data: append([]byte(nil), data...),
	})
}

// Len returns the number of recorded outputs.
func (l *OutputLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Name returns the replica name.
func (l *OutputLog) Name() string { return l.name }

// Events returns a copy of all recorded events.
func (l *OutputLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

func (l *OutputLog) normalized(data []byte) []byte {
	if l.normalizer == nil {
		return data
	}
	return l.normalizer.ReplaceAll(data, []byte("<normalized>"))
}

// Fingerprint returns an FNV-1a hash over the normalized ordered outputs;
// equal fingerprints mean byte-identical (normalized) output streams. It
// folds every retained event on each call: an end-of-run comparison, not
// something to poll.
func (l *OutputLog) Fingerprint() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := uint64(fnvOffset)
	for _, e := range l.events {
		h = hashEvent(h, e.Conn, l.normalized(e.Data))
	}
	return h
}

// Divergence describes the first difference between two logs.
type Divergence struct {
	Seq    int // index of the first differing event (-1: none)
	Reason string
}

// Diff compares two replica logs event by event (after normalization) and
// returns nil if they are identical.
func Diff(a, b *OutputLog) *Divergence {
	ae, be := a.Events(), b.Events()
	n := len(ae)
	if len(be) < n {
		n = len(be)
	}
	for i := 0; i < n; i++ {
		x, y := ae[i], be[i]
		if x.Conn != y.Conn {
			return &Divergence{Seq: i, Reason: fmt.Sprintf(
				"%s wrote to conn %d, %s to conn %d", a.name, x.Conn, b.name, y.Conn)}
		}
		if !bytes.Equal(a.normalized(x.Data), b.normalized(y.Data)) {
			return &Divergence{Seq: i, Reason: fmt.Sprintf(
				"contents differ at output %d: %q vs %q", i, truncate(x.Data), truncate(y.Data))}
		}
	}
	if len(ae) != len(be) {
		return &Divergence{Seq: n, Reason: fmt.Sprintf(
			"%s logged %d outputs, %s logged %d", a.name, len(ae), b.name, len(be))}
	}
	return nil
}

// DiffAll compares every log against the first; it returns one line per
// divergent replica (empty slice: all consistent).
func DiffAll(logs []*OutputLog) []string {
	var out []string
	if len(logs) < 2 {
		return out
	}
	for _, l := range logs[1:] {
		if d := Diff(logs[0], l); d != nil {
			out = append(out, fmt.Sprintf("%s vs %s: %s", logs[0].name, l.name, d.Reason))
		}
	}
	return out
}

func truncate(b []byte) string {
	const max = 48
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}
