// Command perfbench is the repository's benchmark.  It boots the nwserved
// HTTP stack (internal/server) in process behind a loopback listener, drives
// one traffic mix against it in a closed loop over two connections, checks
// every verdict against an independent oracle, and prints the end-to-end
// metrics — or, with --trace 1, the per-layer metrics and the station ledger.
//
// Build and run it from the repository root through run.sh, which compiles
// this module against the checkout it sits in:
//
//	bash perfbench/run.sh --workload large-docs --seed 1 --seconds 30 --trace 0
//
// The workloads, metric names, units and regression bounds are declared in
// BENCHMARK.json at the repository root, which the benchmark reads at start
// to check the workload it is asked for.  The last line of standard output
// is one JSON object with the keys correct, attempted, failed and metrics; a
// wrong verdict makes correct false and the exit status 1.  See README.md in
// this directory for what each workload and metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name from BENCHMARK.json")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 30, "measured run length in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark declaration to read the workloads from")
		out     = flag.String("out", ".bench_build/perfbench", "directory for bundle files and span dumps")
	)
	flag.Parse()
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	rep, err := run(options{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		spec:     *spec,
		out:      *out,
	}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}
