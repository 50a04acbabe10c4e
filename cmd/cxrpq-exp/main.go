// Command cxrpq-exp runs the paper-reproduction experiment suite (the
// E1–E16 index in DESIGN.md) and prints one table per experiment. The
// outputs recorded in EXPERIMENTS.md were produced by this command.
//
// -only selects which experiments run (an unknown ID exits 2 before
// anything runs). With -json the per-experiment wall-clock times of the
// experiments that ran are additionally written as a machine-readable
// report (the repo tracks one as BENCH_engine.json so PRs can diff the
// perf trajectory). -cpuprofile/-memprofile write
// runtime/pprof profiles of the run, the intended workflow for tuning the
// sharded reachability kernel (engine.SetShards) against E22.
//
// Usage:
//
//	cxrpq-exp [-scale 1] [-only E5,E11] [-json BENCH_engine.json] [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"cxrpq/internal/exp"
)

func main() {
	os.Exit(run())
}

// run carries the whole command so the profile-writing defers execute
// before the process exits (os.Exit in main would skip them).
func run() int {
	scale := flag.Int("scale", 1, "workload scale factor (1 = fast)")
	only := flag.String("only", "", "comma-separated experiment IDs to run (default: all); the JSON report lists only these")
	jsonPath := flag.String("json", "", "write machine-readable benchmark results to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cxrpq-exp:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cxrpq-exp:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cxrpq-exp:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cxrpq-exp:", err)
			}
		}()
	}

	var ids []string
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	tts, err := exp.AllTimed(*scale, ids...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cxrpq-exp:", err)
		return 2
	}
	failed := false
	for _, tt := range tts {
		fmt.Println(tt.Table.Render())
		if tt.Table.Err != nil {
			failed = true
		}
	}
	if *jsonPath != "" {
		if err := exp.WriteBenchJSON(*jsonPath, tts, *scale); err != nil {
			fmt.Fprintln(os.Stderr, "cxrpq-exp:", err)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}
