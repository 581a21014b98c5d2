// Command benchmark is the repository's one yardstick: it deploys the
// paper's servers through crane.StartCluster, drives them with sustained
// load from two client slots in this process, checks the replicas'
// outputs, and prints every metric named in BENCHMARK.json.
//
//	go run ./benchmark -workload mysql_oltp -seed 1              # end-to-end metrics
//	go run ./benchmark -workload mysql_oltp -seed 1 -trace 1     # per-layer metrics
//	go run ./benchmark -compare a.jsonl b.jsonl                  # two sets of runs
//
// See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"
)

func main() {
	var o options
	var trace int
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the request streams, kill offsets and network jitter")
	flag.Float64Var(&o.seconds, "seconds", 24, "measured seconds, split across the phases")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&o.smoke, "smoke", false, "quick local check: 10 measured seconds, one failover trial")
	flag.BoolVar(&o.corrupt, "corrupt", false, "deliberately break the expected responses, to show the checks fail the run")
	flag.StringVar(&o.out, "out", "", "append this run's result to a JSONL file, for -compare")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: -compare <setA> <setB>")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare <setA.jsonl> <setB.jsonl>")
			os.Exit(2)
		}
		if err := compareSets(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}

	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; have:", o.workload)
		for _, w := range workloads() {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	o.traced = trace != 0
	if o.smoke {
		o.seconds = 10 // the least that still leaves ten samples beyond every p90
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		os.Exit(2)
	}
	os.Exit(run(w, o))
}

// run executes one workload under a watchdog and returns the exit code.
// Temp WAL directories are removed on every path out, including a signal
// and the watchdog.
func run(w workload, o options) int {
	defer removeTempDirs()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		removeTempDirs()
		os.Exit(130)
	}()

	// A wedged cluster must fail loudly, not hang the caller: past twice
	// the planned length (plus set-up allowance), dump every goroutine
	// and exit non-zero.
	budget := 2*makePlan(w, o).total() + 30*time.Second
	watchdog := time.AfterFunc(budget, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded its %v wall-clock budget; goroutines:\n", w.name, budget)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		removeTempDirs()
		os.Exit(3)
	})
	defer watchdog.Stop()

	rep, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if o.traced {
		path, err := rep.writeSpans()
		if err != nil {
			rep.fail("writing spans: %v", err)
		} else {
			fmt.Printf("spans written to %s\n", path)
		}
	}
	if !rep.emit(os.Stdout) {
		return 1
	}
	return 0
}
