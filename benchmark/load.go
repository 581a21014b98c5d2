package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// span is the generator's record of one request. Times are UnixNano, the
// clock the replicas' lifecycle tracer stamps, so the two line up.
type span struct {
	ID      int    `json:"id"`
	Phase   string `json:"phase"`
	Slot    int    `json:"slot"`
	Due     int64  `json:"due_ns"`        // when the schedule wanted it sent
	Dial    int64  `json:"dial_ns"`       // dispatch: first dial began
	Dialed  int64  `json:"dialed_ns"`     // connection of the final attempt open
	Written int64  `json:"written_ns"`    // request bytes handed to the network
	First   int64  `json:"first_byte_ns"` // first response byte
	Done    int64  `json:"done_ns"`       // response complete and verified
	Retries int    `json:"retries"`
	Err     string `json:"err,omitempty"`
}

// latencyMs is completion measured from the due time, so a stall charges
// every request that fell due during it, not just the one in flight.
func (s *span) latencyMs() float64 { return float64(s.Done-s.Due) / 1e6 }

// latenessMs is how long the request waited in the generator past its due
// time because both slots were busy.
func (s *span) latenessMs() float64 { return float64(s.Dial-s.Due) / 1e6 }

// phaseResult is one load phase's outcome.
type phaseResult struct {
	name      string
	start     time.Time
	elapsed   time.Duration
	spans     []span // every attempted request, in due order
	marks     []mark // window boundaries, first at the start, last at the end
	whole     bool   // judge as one window: an outage inside must not be split off
	firstErrs []string
}

// mark is one window boundary of a phase: when, and the process CPU then.
type mark struct {
	at  time.Time
	cpu time.Duration
}

// The end-to-end figures are medians over windows of a phase, not one
// figure over all of it: the pipeline now and then drops into a slow mode
// for half a second (service time x4, a backlog in the open loop), and a
// whole-phase mean or p90 then reads 10-50% off in one run of five. The
// median window is what the system does when it is not stalled; the
// stalls are the client layer's tail metrics.
const (
	rateWindows      = 10  // windows per closed phase for throughput and CPU
	latencyWindowMin = 110 // requests per latency window: p90 keeps ten beyond it
	latencyWindowMax = 10  // windows per open phase
)

func (p *phaseResult) attempted() int { return len(p.spans) }

func (p *phaseResult) failed() int {
	n := 0
	for i := range p.spans {
		if p.spans[i].Err != "" {
			n++
		}
	}
	return n
}

func (p *phaseResult) completed() int { return p.attempted() - p.failed() }

// sorted returns f over the completed requests, ascending.
func (p *phaseResult) sorted(f func(*span) float64) []float64 {
	out := make([]float64, 0, len(p.spans))
	for i := range p.spans {
		if p.spans[i].Err == "" {
			out = append(out, f(&p.spans[i]))
		}
	}
	sort.Float64s(out)
	return out
}

func (p *phaseResult) throughput() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.completed()) / p.elapsed.Seconds()
}

// windowRates returns, per window between marks, the completed requests
// per second and the process CPU milliseconds per completed request.
func (p *phaseResult) windowRates() (rps, cpuMs []float64) {
	for w := 0; w+1 < len(p.marks); w++ {
		from, to := p.marks[w], p.marks[w+1]
		done := 0
		for i := range p.spans {
			if sp := &p.spans[i]; sp.Err == "" && sp.Done > from.at.UnixNano() && sp.Done <= to.at.UnixNano() {
				done++
			}
		}
		if secs := to.at.Sub(from.at).Seconds(); secs > 0 && done > 0 {
			rps = append(rps, float64(done)/secs)
			cpuMs = append(cpuMs, float64(to.cpu-from.cpu)/1e6/float64(done))
		}
	}
	return rps, cpuMs
}

// latencyWindows splits the completed requests, in due order, into equal
// windows of at least latencyWindowMin and returns each window's sorted
// latencies.
func (p *phaseResult) latencyWindows() [][]float64 {
	var lat []float64
	for i := range p.spans {
		if p.spans[i].Err == "" {
			lat = append(lat, p.spans[i].latencyMs())
		}
	}
	k := len(lat) / latencyWindowMin
	if k > latencyWindowMax {
		k = latencyWindowMax
	}
	if k < 1 || p.whole {
		k = 1
	}
	out := make([][]float64, 0, k)
	for w := 0; w < k; w++ {
		win := append([]float64(nil), lat[w*len(lat)/k:(w+1)*len(lat)/k]...)
		sort.Float64s(win)
		out = append(out, win)
	}
	return out
}

// cpuTime is the process's user+system CPU so far: the client slots plus
// every replica, which all live in this process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxAttempts bounds the connection-level retries of one request; all of
// them share the request's one timeout.
const maxAttempts = 4

// do performs one request against d: dial the primary, write, read the
// whole response, verify it. A connection cut before the response is whole
// (a leader kill) is retried on whoever leads next, within the same
// timeout; wrong content is never retried.
func (d *deployment) do(req *request, client string, sp *span) {
	sp.Dial = now().UnixNano()
	deadline := now().Add(requestTimeout)
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			sp.Retries++
			client = fmt.Sprintf("%s.r%d", client, attempt)
			time.Sleep(time.Millisecond)
		}
		conn, err := d.dial(client, deadline)
		if err != nil {
			lastErr = err
			break // dial already waited out the whole timeout
		}
		sp.Dialed = now().UnixNano()
		conn.SetReadDeadline(deadline)
		if _, err := conn.Write(req.payload); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		sp.Written = now().UnixNano()
		var first time.Time
		resp, err := readUntil(conn, req.complete, &first)
		conn.Close()
		if err != nil {
			lastErr = fmt.Errorf("read: %w", err)
			if !now().Before(deadline) {
				break
			}
			continue
		}
		sp.First = first.UnixNano()
		if err := req.check(resp); err != nil {
			lastErr = fmt.Errorf("wrong response content: %v", err)
			break
		}
		sp.Done = now().UnixNano()
		if req.acked != nil {
			req.acked()
		}
		return
	}
	sp.Done = now().UnixNano()
	sp.Err = lastErr.Error()
}

// runClosed drives d with `slots` clients, each sending its next request
// as soon as the previous one completes, for dur.
func runClosed(d *deployment, st stream, phase string, dur time.Duration) *phaseResult {
	return runLoad(d, st, phase, dur, 0, false)
}

// runOpen drives d on a fixed schedule: request i falls due at
// start + i/rate whatever the system is doing. A due request waits in the
// generator while both slots are busy; its latency still counts from the
// due time.
func runOpen(d *deployment, st stream, phase string, dur time.Duration, rate float64) *phaseResult {
	return runLoad(d, st, phase, dur, rate, false)
}

// runLoad runs one phase: open loop at rate when positive, closed loop
// otherwise. whole marks a phase to be judged as one window: a trial's
// short closed phase, or an open phase with an outage inside.
func runLoad(d *deployment, st stream, phase string, dur time.Duration, rate float64, whole bool) *phaseResult {
	res := &phaseResult{name: phase, start: now(), whole: whole}
	end := res.start.Add(dur)
	var next atomic.Int64
	perSlot := make([][]span, slots)
	res.marks = []mark{{res.start, cpuTime()}}
	stopMarks := make(chan struct{})
	var marker sync.WaitGroup
	if !res.whole {
		marker.Add(1)
		go func() { // stamp the inner window boundaries
			defer marker.Done()
			for w := 1; w < rateWindows; w++ {
				select {
				case <-stopMarks:
					return
				case <-time.After(until(res.start.Add(dur * time.Duration(w) / rateWindows))):
					res.marks = append(res.marks, mark{now(), cpuTime()})
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for slot := 0; slot < slots; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				due := now()
				if rate > 0 {
					due = res.start.Add(dueOffset(i, rate))
				}
				if !due.Before(end) {
					return
				}
				if wait := until(due); wait > 0 {
					time.Sleep(wait)
				}
				sp := span{ID: i, Phase: phase, Slot: slot, Due: due.UnixNano()}
				d.do(st.next(slot), fmt.Sprintf("%s%d:%d", phase, slot, i), &sp)
				perSlot[slot] = append(perSlot[slot], sp)
			}
		}(slot)
	}
	wg.Wait()
	close(stopMarks)
	marker.Wait()
	res.marks = append(res.marks, mark{now(), cpuTime()})
	res.elapsed = since(res.start)
	for _, s := range perSlot {
		res.spans = append(res.spans, s...)
	}
	sort.Slice(res.spans, func(i, j int) bool { return res.spans[i].ID < res.spans[j].ID })
	for i := range res.spans {
		if e := res.spans[i].Err; e != "" && len(res.firstErrs) < 3 {
			res.firstErrs = append(res.firstErrs, fmt.Sprintf("%s#%d: %s", phase, res.spans[i].ID, e))
		}
	}
	return res
}

// dueOffset is when open-loop request i falls due after the phase start.
func dueOffset(i int, rate float64) time.Duration {
	return time.Duration(float64(i) * (float64(time.Second) / rate))
}

// saturated reports whether open-loop lateness was still growing when the
// phase ended: the final fifth of the requests waited in the generator
// for more than two arrival intervals, and longer than the fifth before.
func saturated(p *phaseResult, rate float64) bool {
	n := len(p.spans)
	if n < 50 {
		return false
	}
	late := func(from, to int) float64 {
		var v []float64
		for i := from; i < to; i++ {
			v = append(v, p.spans[i].latenessMs())
		}
		return median(v)
	}
	last, prev := late(n-n/5, n), late(n-2*(n/5), n-n/5)
	return last > 2*1000/rate && last > prev
}
