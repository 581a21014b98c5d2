// Command crane-bench regenerates the paper's evaluation (§7): every
// figure and table, printed in the same shape the paper reports.
//
//	crane-bench                    # run everything at small scale
//	crane-bench -full              # approach the paper's request counts
//	crane-bench -only fig14,table1 # select experiments
//
// It exits non-zero when §7.2 plan I (full CRANE) diverges.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"crane/internal/bench"
	"crane/internal/crane"
)

func main() {
	full := flag.Bool("full", false, "run at full scale (slower, closer to the paper's 1K-request runs)")
	only := flag.String("only", "", "comma-separated subset: fig14,table1,fig15,fig16,fig17,table2,consistency,election,ablation")
	runs := flag.Int("consistency-runs", 10, "runs per consistency plan (paper: 100)")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the run to this file")
	flag.Parse()

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fail(err)
		}
		defer func() {
			runtime.GC() // flush final allocation stats into the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
			f.Close()
			fmt.Printf("wrote %s (inspect with: go tool pprof -alloc_space %s)\n", *memProfile, *memProfile)
		}()
	}

	scale := bench.SmallScale
	if *full {
		scale = bench.FullScale
	}
	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }
	out := os.Stdout
	start := time.Now()

	if sel("fig14") {
		fmt.Fprintln(out, "== Figure 14: performance normalized to un-replicated nondeterministic execution ==")
		if _, err := bench.Figure14(scale, out); err != nil {
			fail(err)
		}
	}
	if sel("table1") {
		fmt.Fprintln(out, "== Table 1: ratio of time bubbles in all Paxos consensus requests ==")
		if _, err := bench.Table1(scale, out); err != nil {
			fail(err)
		}
	}
	if sel("fig15") {
		fmt.Fprintln(out, "== Figure 15: effect of soft-barrier performance hints ==")
		if _, err := bench.Figure15(scale, out); err != nil {
			fail(err)
		}
	}
	if sel("fig16") {
		fmt.Fprintln(out, "== Figure 16: W_timeout sensitivity ==")
		if _, err := bench.Figure16(scale, out); err != nil {
			fail(err)
		}
	}
	if sel("fig17") {
		fmt.Fprintln(out, "== Figure 17: N_clock sensitivity ==")
		if _, err := bench.Figure17(scale, out); err != nil {
			fail(err)
		}
	}
	if sel("table2") {
		fmt.Fprintln(out, "== Table 2: checkpoint and restore costs ==")
		if _, err := bench.Table2(scale, out); err != nil {
			fail(err)
		}
	}
	if sel("consistency") {
		fmt.Fprintln(out, "== §7.2: consistency of network outputs ==")
		planI, err := bench.Consistency(crane.ModeCrane, *runs, out)
		if err != nil {
			fail(err)
		}
		if _, err := bench.Consistency(crane.ModeCraneNoBubble, *runs, out); err != nil {
			fail(err)
		}
		// Plan I is the paper's claim: full CRANE never diverges (plan II
		// is expected to).
		if planI.Divergent > 0 {
			fail(fmt.Errorf("plan I (full CRANE) diverged in %d/%d runs", planI.Divergent, planI.Runs))
		}
	}
	if sel("election") {
		fmt.Fprintln(out, "== §7.6: leader election ==")
		if _, err := bench.Election(out); err != nil {
			fail(err)
		}
	}
	if sel("ablation") {
		fmt.Fprintln(out, "== Ablation: per-burst vs per-request time consensus ==")
		if _, _, err := bench.AblationPerRequest(scale, out); err != nil {
			fail(err)
		}
		fmt.Fprintln(out, "== Ablation: Rex-style schedule shipping vs CRANE input consensus ==")
		if _, err := bench.AblationRex(scale, out); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(out, "done in %v\n", time.Since(start).Round(time.Second))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "crane-bench:", err)
	os.Exit(1)
}
