package main

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"crane/internal/cfs"
	"crane/internal/crane"
	"crane/internal/papi"
)

// stallProgram is a serial line server that answers "OK\n" to every
// request and stalls once, for stall, on request number stallAt: a whole-
// pipeline stall of the kind the sizing probe saw.
func stallProgram(port, stallAt int, stall time.Duration) papi.Program {
	return papi.Program{
		Name:  "stall",
		Ports: []int{port},
		New: func(*cfs.FS) papi.Instance {
			return papi.FuncInstance{Main: func(t papi.T) {
				l, err := t.Listen(port)
				if err != nil {
					return
				}
				buf := make([]byte, 64)
				for served := 0; !t.Killed(); served++ {
					c, err := l.Accept(t)
					if err != nil {
						return
					}
					var acc []byte
					for !bytes.Contains(acc, []byte("\n")) {
						n, err := c.Recv(t, buf)
						if err != nil {
							break
						}
						acc = append(acc, buf[:n]...)
					}
					if served == stallAt {
						time.Sleep(stall)
					}
					c.Send(t, []byte("OK\n"))
					c.Close(t)
				}
			}}
		},
	}
}

type pingStream struct{}

func (pingStream) next(int) *request {
	return &request{
		payload:  []byte("PING\n"),
		complete: func(acc []byte) bool { return bytes.Contains(acc, []byte("\n")) },
		check: func(resp []byte) error {
			if string(resp) != "OK\n" {
				return fmt.Errorf("got %q", resp)
			}
			return nil
		},
	}
}

// Latency must be timed from the due time: when the server stalls 200 ms,
// every request that fell due during the stall has to show it, not just
// the two that were in flight (no coordinated omission).
func TestOpenLoopChargesAStallToEveryDueRequest(t *testing.T) {
	const rate, stall = 100.0, 200 * time.Millisecond
	w := workload{
		name: "stall", port: 7000, lanes: 1, groups: 1, rate: rate,
		program:   func() papi.Program { return stallProgram(7000, 20, stall) },
		newStream: func(int64) stream { return pingStream{} },
	}
	st := w.newStream(1)
	d, err := deploy(w, crane.ModeNondet, 1, false, st)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	res := runOpen(d, st, "open", time.Second, rate)
	if res.failed() != 0 || res.attempted() != 100 {
		t.Fatalf("attempted %d failed %d, want 100 and 0: %v", res.attempted(), res.failed(), res.firstErrs)
	}
	slowFromDue, slowFromSend := 0, 0
	for i := range res.spans {
		sp := &res.spans[i]
		if sp.latencyMs() >= 100 {
			slowFromDue++
		}
		if float64(sp.Done-sp.Dial)/1e6 >= 100 {
			slowFromSend++
		}
	}
	// About ten requests fall due in the first half of the stall; timed
	// from their send only the ones stuck in the two slots look slow.
	if slowFromDue < 8 {
		t.Errorf("%d requests show >=100ms from their due time, want >= 8: the stall was omitted", slowFromDue)
	}
	if slowFromSend > slots {
		t.Errorf("%d requests took >=100ms from their send, want <= %d", slowFromSend, slots)
	}
	if late := maxOf(res.sorted((*span).latenessMs)); late < 100 {
		t.Errorf("max lateness %.1fms, want the generator to report the ~200ms it fell behind", late)
	}
	if saturated(res, rate) {
		t.Error("a stall the generator recovered from was reported as saturation")
	}
}

// A server slower than the arrival rate must be reported as saturated.
func TestSaturationIsReported(t *testing.T) {
	res := &phaseResult{}
	for i := 0; i < 200; i++ {
		due := int64(i) * int64(10*time.Millisecond)
		// Each request is dispatched a further 5 ms late: a growing queue.
		res.spans = append(res.spans, span{ID: i, Due: due, Dial: due + int64(i)*int64(5*time.Millisecond)})
	}
	if !saturated(res, 100) {
		t.Error("steadily growing lateness not reported as saturated")
	}
}

// One stalled window must not move the windowed medians: that is what
// makes the end-to-end figures repeat from run to run.
func TestWindowedMediansIgnoreOneStall(t *testing.T) {
	steady, stalled := &phaseResult{}, &phaseResult{}
	t0 := time.Unix(1000, 0)
	for _, p := range []*phaseResult{steady, stalled} {
		for w := 0; w <= rateWindows; w++ {
			p.marks = append(p.marks, mark{t0.Add(time.Duration(w) * time.Second), time.Duration(w) * 400 * time.Millisecond})
		}
	}
	// 100 req/s for ten seconds, 5 ms each; the stalled run serves the
	// fourth second's requests 300 ms late.
	for i := 0; i < 1000; i++ {
		due := t0.Add(time.Duration(i) * 10 * time.Millisecond).UnixNano()
		sp := span{ID: i, Due: due, Dial: due, Done: due + int64(5*time.Millisecond)}
		steady.spans = append(steady.spans, sp)
		if i >= 300 && i < 400 {
			sp.Done += int64(300 * time.Millisecond)
		}
		stalled.spans = append(stalled.spans, sp)
	}
	p90 := func(p *phaseResult) float64 {
		var v []float64
		for _, win := range p.latencyWindows() {
			x, err := percentile(win, 0.90)
			if err != nil {
				t.Fatal(err)
			}
			v = append(v, x)
		}
		if len(v) != 9 { // 1000 requests in windows of at least 110
			t.Fatalf("%d latency windows, want 9", len(v))
		}
		return median(v)
	}
	if a, b := p90(steady), p90(stalled); a != b || a != 5 {
		t.Errorf("windowed p90: steady %v, with one stalled window %v, want 5 and 5", a, b)
	}
	rpsA, cpuA := steady.windowRates()
	rpsB, cpuB := stalled.windowRates()
	if len(rpsA) != rateWindows || median(rpsA) != median(rpsB) || median(rpsA) != 100 {
		t.Errorf("windowed throughput: steady %v, stalled %v, want 100 and 100", median(rpsA), median(rpsB))
	}
	if median(cpuA) != 4 || median(cpuB) != 4 {
		t.Errorf("windowed cpu/req: %v and %v ms, want 4", median(cpuA), median(cpuB))
	}
	// A phase marked whole is one window however many requests it holds.
	stalled.whole = true
	if n := len(stalled.latencyWindows()); n != 1 {
		t.Errorf("whole phase split into %d windows", n)
	}
}
