// Package clockfast seeds the live-clock bug: an application clock reads
// the DMT scheduler's lock-free clock mirror. A thread reading it between
// two of its own turns sees other threads' ticks, which land in physical
// time, so what it derives diverges across replicas. The read hides
// behind an interface method and the value reaches a client through
// papi.Conn.Send. The test loads the package under an internal/apps
// import path.
package clockfast

import (
	"fmt"

	"crane/internal/dmt"
	"crane/internal/papi"
)

// clock is what the handler sees; the scheduler is behind it.
type clock interface{ Now() uint64 }

type liveClock struct{ sched *dmt.Scheduler }

// Now reads the live clock mirror instead of the thread's own turn.
func (c liveClock) Now() uint64 { return c.sched.ClockFast() }

// Reply stamps a response with the clock and sends it to the client.
func Reply(t papi.T, c papi.Conn, clk clock) {
	c.Send(t, []byte(fmt.Sprintf("at=%d", clk.Now()))) // want `nondeterministic value \(live DMT clock at [^)]+\) reaches papi\.Conn\.Send via clockfast\.liveClock\.Now → clockfast\.Reply`
}
