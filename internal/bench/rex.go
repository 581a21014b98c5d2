package bench

import (
	"fmt"
	"io"
	"time"

	"crane/internal/apps/clients"
	"crane/internal/cfs"
	"crane/internal/crane"
	"crane/internal/obs/flight"
	"crane/internal/papi"
	"crane/internal/simnet"
)

// RexComparison quantifies §8's argument against Rex-style
// "execute-agree-follow" replication: Rex must ship the primary's thread
// interleavings to backups, while CRANE ships only socket inputs. This
// experiment runs the Apache workload once under the plain Parrot runtime
// with schedule recording (measuring how many synchronization-schedule
// bytes a Rex primary would ship) and once under full CRANE (measuring the
// consensus payload bytes actually shipped), and reports both per request.
// The schedule is read off the flight journal the Parrot scheduler keeps:
// its tick entries are exactly the non-idle (thread, op) steps a Rex
// primary would ship.
type RexComparison struct {
	Requests          int
	ScheduleOps       int
	ScheduleBytesPerR float64 // Rex: recorded schedule bytes / request
	InputBytesPerR    float64 // CRANE: consensus payload bytes / request
	Ratio             float64 // schedule/input (>1: Rex ships more)
}

// scheduleBytesPerOp is the wire cost of one schedule step (thread id
// varint + op byte, as Rex's interleaving stream would carry).
const scheduleBytesPerOp = 5

// rexEntriesPerRequest sizes the journal ring: an Apache request journals
// about 60 entries (ticks, waits, signals), so this keeps every entry of
// the run with room to spare.
const rexEntriesPerRequest = 512

// AblationRex runs the comparison.
func AblationRex(s Scale, w io.Writer) (RexComparison, error) {
	res := RexComparison{Requests: s.Requests}
	spec := Specs()[0] // Apache

	// --- Rex side: journal the DMT schedule under plain Parrot. ---
	net := simnet.New(simnet.Options{Latency: 30 * time.Microsecond})
	fs := cfs.New()
	prog := spec.Program(false)
	if prog.Install != nil {
		prog.Install(fs)
	}
	proc := papi.NewParrotProc(net, "server", fs)
	journal := flight.New("rex", 1, flight.Options{Capacity: rexEntriesPerRequest * s.Requests}).Lane(0)
	proc.Sched.SetFlight(journal)
	proc.Start(prog.New(fs))
	dial := func(client string, port int) (*simnet.Conn, error) {
		var c *simnet.Conn
		var err error
		for i := 0; i < 300; i++ {
			c, err = net.Dial(simnet.Addr(client), simnet.Addr(fmt.Sprintf("server:%d", port)))
			if err == nil {
				return c, nil
			}
			time.Sleep(time.Millisecond)
		}
		return nil, err
	}
	sum := spec.Workload(clients.Dialer(dial), s)
	proc.Kill()
	proc.Wait()
	if sum.Errors > 0 {
		return res, fmt.Errorf("bench: rex recording had %d errors", sum.Errors)
	}
	entries := journal.Entries()
	if n := journal.Len(); n > uint64(len(entries)) {
		return res, fmt.Errorf("bench: rex journal ring wrapped (%d entries, %d kept): raise rexEntriesPerRequest", n, len(entries))
	}
	for _, e := range entries {
		if e.Kind == flight.EvTick {
			res.ScheduleOps++
		}
	}
	res.ScheduleBytesPerR = float64(res.ScheduleOps*scheduleBytesPerOp) / float64(s.Requests)

	// --- CRANE side: measure consensus payload bytes. ---
	cluster, err := crane.StartCluster(ClusterConfig(crane.ModeCrane), spec.Program(false))
	if err != nil {
		return res, err
	}
	spec.Workload(cluster.Dial, s)
	st := cluster.SeqStats()
	cluster.Stop()
	res.InputBytesPerR = float64(st.PayloadBytes) / float64(s.Requests)
	if res.InputBytesPerR > 0 {
		res.Ratio = res.ScheduleBytesPerR / res.InputBytesPerR
	}
	if w != nil {
		fmt.Fprintf(w, "Rex-vs-CRANE shipping: schedule %.0f B/req (%d ops) vs input %.0f B/req (%.1fx)\n",
			res.ScheduleBytesPerR, res.ScheduleOps, res.InputBytesPerR, res.Ratio)
	}
	return res, nil
}
