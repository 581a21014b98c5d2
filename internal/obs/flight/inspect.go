// Divergence localization over journal dumps: parse two replicas'
// /journal JSONL, binary-search the chained hashes to the first
// divergent entry, and render a side-by-side report. This lives in the
// flight package (not cmd/crane-inspect) so tier-1 tests can assert
// exact localization without shelling out.
package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Dump is one replica's parsed journal.
type Dump struct {
	Replica    string
	LaneCount  int
	AuditEvery uint64
	Lanes      map[int32]*LaneDump // keyed by lane; -1 is the control journal
}

// LaneDump holds one journal's retained stream.
type LaneDump struct {
	Lane     int32
	Dropped  uint64 // entries evicted from the ring before the dump
	Segments []Segment
	Entries  []Entry // oldest first; Entries[i].Idx is contiguous
}

// jsonlLine is the union of every line shape WriteJSONL emits.
type jsonlLine struct {
	Meta       string `json:"meta"`
	Replica    string `json:"replica"`
	LaneCount  int    `json:"lanes"`
	AuditEvery uint64 `json:"audit_every"`

	Lane      int32  `json:"lane"`
	SegEnd    uint64 `json:"seg_end"`
	Truncated bool   `json:"truncated"`
	Dropped   uint64 `json:"dropped"`

	Idx    uint64 `json:"idx"`
	Kind   string `json:"kind"`
	Clock  uint64 `json:"clock"`
	Pos    uint64 `json:"pos"`
	A      uint64 `json:"a"`
	B      uint64 `json:"b"`
	Chain  uint64 `json:"chain"`
	Detail string `json:"detail"`
}

// ParseJournal reads a /journal JSONL dump back into a Dump.
func ParseJournal(r io.Reader) (*Dump, error) {
	d := &Dump{Lanes: map[int32]*LaneDump{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ln jsonlLine
		if err := json.Unmarshal(raw, &ln); err != nil {
			return nil, fmt.Errorf("flight: journal line %d: %w", lineno, err)
		}
		switch {
		case ln.Meta != "":
			d.Replica = ln.Replica
			d.LaneCount = ln.LaneCount
			d.AuditEvery = ln.AuditEvery
		case ln.SegEnd != 0:
			lane := d.lane(ln.Lane)
			lane.Segments = append(lane.Segments, Segment{End: ln.SegEnd, Chain: ln.Chain})
		case ln.Truncated:
			d.lane(ln.Lane).Dropped = ln.Dropped
		case ln.Kind != "":
			lane := d.lane(ln.Lane)
			lane.Entries = append(lane.Entries, Entry{
				Idx:    ln.Idx,
				Kind:   kindByName(ln.Kind),
				Lane:   ln.Lane,
				Clock:  ln.Clock,
				Pos:    ln.Pos,
				A:      ln.A,
				B:      ln.B,
				Chain:  ln.Chain,
				Detail: ln.Detail,
			})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("flight: journal read: %w", err)
	}
	return d, nil
}

func (d *Dump) lane(lane int32) *LaneDump {
	l, ok := d.Lanes[lane]
	if !ok {
		l = &LaneDump{Lane: lane}
		d.Lanes[lane] = l
	}
	return l
}

// Divergence locates the first difference between two replicas'
// journals.
type Divergence struct {
	Lane  int32
	Exact bool   // entry-level localization succeeded
	Idx   uint64 // first divergent entry index (when Exact)
	A, B  *Entry // the divergent entries (when Exact)

	SegEnd uint64 // divergent-segment bound when only segment-level localization was possible
	Note   string // human explanation (also set for non-exact outcomes)
}

// FirstDivergence compares two dumps lane by lane and returns the first
// divergent point (lowest lane number wins), or nil if every comparable
// prefix matches. Chains make prefix comparison O(1) per probe, so the
// localization is a binary search: segments narrow the divergence to a
// segEvery-entry window even when the entry ring has evicted it; when
// the entries are retained the search lands on the exact first
// divergent entry.
func FirstDivergence(a, b *Dump) *Divergence {
	lanes := make([]int32, 0, len(a.Lanes))
	for lane := range a.Lanes {
		if lane >= 0 {
			lanes = append(lanes, lane)
		}
	}
	sort.Slice(lanes, func(i, j int) bool { return lanes[i] < lanes[j] })
	for _, lane := range lanes {
		la, lb := a.Lanes[lane], b.Lanes[lane]
		if lb == nil {
			return &Divergence{Lane: lane, Note: fmt.Sprintf("lane %d present only in %s", lane, a.Replica)}
		}
		if d := divergeLane(la, lb); d != nil {
			return d
		}
	}
	return nil
}

// divergeLane compares one lane's streams.
func divergeLane(a, b *LaneDump) *Divergence {
	// Segment pass: longest horizon. Find the first common segment
	// boundary where the chains differ.
	segDiff, segOK := firstSegmentDiff(a.Segments, b.Segments)

	// Entry pass over the common retained window.
	if len(a.Entries) > 0 && len(b.Entries) > 0 {
		aFirst, bFirst := a.Entries[0].Idx, b.Entries[0].Idx
		lo := aFirst
		if bFirst > lo {
			lo = bFirst
		}
		aLast := a.Entries[len(a.Entries)-1].Idx
		bLast := b.Entries[len(b.Entries)-1].Idx
		hi := aLast
		if bLast < hi {
			hi = bLast
		}
		if lo <= hi {
			at := func(d *LaneDump, idx uint64) *Entry { return &d.Entries[idx-d.Entries[0].Idx] }
			// If the chains agree at the start of the common window but
			// disagree somewhere inside it, binary search for the first
			// divergent entry: chainEq is monotone (once the streams
			// diverge the chains never re-converge, FNV collisions aside).
			chainEq := func(idx uint64) bool { return at(a, idx).Chain == at(b, idx).Chain }
			if !chainEq(hi) {
				if chainEq(lo) {
					for lo+1 < hi {
						mid := lo + (hi-lo)/2
						if chainEq(mid) {
							lo = mid
						} else {
							hi = mid
						}
					}
					ea, eb := at(a, hi), at(b, hi)
					return &Divergence{
						Lane: a.Lane, Exact: true, Idx: hi, A: ea, B: eb,
						Note: fmt.Sprintf("first divergent entry at idx %d (clock %d/%d, pos %d/%d)",
							hi, ea.Clock, eb.Clock, ea.Pos, eb.Pos),
					}
				}
				// Divergence precedes the retained window: the exact entry
				// was evicted from the ring.
				d := &Divergence{Lane: a.Lane, Idx: lo, Note: fmt.Sprintf(
					"chains already differ at the oldest common retained entry (idx %d); the first divergent entry was evicted from the ring", lo)}
				if segOK {
					d.SegEnd = segDiff
					d.Note += fmt.Sprintf("; segment checksums bound it to the %d-entry window ending at idx %d", DefaultSegEvery, segDiff)
				}
				return d
			}
			// Retained entries agree through hi. Streams of different
			// lengths: a longer journal alone is benign (one replica is
			// simply ahead), so only a chain difference counts.
		}
	}
	if segOK {
		return &Divergence{Lane: a.Lane, SegEnd: segDiff, Note: fmt.Sprintf(
			"segment chains differ at the segment ending idx %d but its entries are no longer retained", segDiff)}
	}
	return nil
}

// firstSegmentDiff returns the End of the first common segment boundary
// whose chains differ.
func firstSegmentDiff(a, b []Segment) (uint64, bool) {
	chainAt := map[uint64]uint64{}
	for _, s := range a {
		chainAt[s.End] = s.Chain
	}
	var diffs []uint64
	for _, s := range b {
		if c, ok := chainAt[s.End]; ok && c != s.Chain {
			diffs = append(diffs, s.End)
		}
	}
	if len(diffs) == 0 {
		return 0, false
	}
	sort.Slice(diffs, func(i, j int) bool { return diffs[i] < diffs[j] })
	return diffs[0], true
}

// Report renders a human side-by-side view of the divergence with a
// window of surrounding events from both replicas.
func Report(w io.Writer, a, b *Dump, d *Divergence, window int) {
	if d == nil {
		fmt.Fprintf(w, "no divergence: %s and %s journals agree on every comparable prefix\n", a.Replica, b.Replica)
		return
	}
	if window <= 0 {
		window = 5
	}
	fmt.Fprintf(w, "divergence in lane %d: %s\n", d.Lane, d.Note)
	if !d.Exact {
		if d.SegEnd != 0 {
			fmt.Fprintf(w, "localized to segment ending idx %d\n", d.SegEnd)
		}
		return
	}
	fmt.Fprintf(w, "\n%-44s | %s\n", a.Replica, b.Replica)
	la, lb := a.Lanes[d.Lane], b.Lanes[d.Lane]
	lo := int64(d.Idx) - int64(window)
	hi := int64(d.Idx) + int64(window)
	for i := lo; i <= hi; i++ {
		if i < 0 {
			continue
		}
		idx := uint64(i)
		marker := "  "
		if idx == d.Idx {
			marker = ">>"
		}
		fmt.Fprintf(w, "%s %-41s | %s\n", marker, entryLine(la, idx), entryLine(lb, idx))
	}
}

func entryLine(l *LaneDump, idx uint64) string {
	if l == nil || len(l.Entries) == 0 {
		return "-"
	}
	first := l.Entries[0].Idx
	if idx < first || idx >= first+uint64(len(l.Entries)) {
		return "-"
	}
	e := &l.Entries[idx-first]
	if e.Kind == EvGroupCommit {
		// Label the group id so a divergence report reads as "which Paxos
		// group's stream split" at a glance.
		return fmt.Sprintf("%6d %-8s clk=%d pos=%d grp=%d slot=%d %08x",
			e.Idx, KindName(e.Kind), e.Clock, e.Pos, e.A, e.B, e.Chain&0xffffffff)
	}
	return fmt.Sprintf("%6d %-8s clk=%d pos=%d a=%d b=%d %08x",
		e.Idx, KindName(e.Kind), e.Clock, e.Pos, e.A, e.B, e.Chain&0xffffffff)
}
