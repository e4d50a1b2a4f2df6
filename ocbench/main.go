// Command ocbench is the router's benchmark. It runs one workload (or
// all three) from instance JSON to verified result, either timed with
// tracing off, printing the end-to-end metrics, or as a traced replay
// that calls each layer's public function under a span, printing the
// per-layer metrics:
//
//	ocbench --workload table2 --seed 1 --seconds 20 --trace 0
//	ocbench --workload all --seed 1 --seconds 20 --trace 1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 when
// every output check passed, 1 when one failed, 2 on a usage or
// set-up error (no result line). README.md describes the workloads
// and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ocbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "table2, channelfree, serve, or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same instances")
	seconds := fs.Float64("seconds", 10, "measuring time per workload")
	trace := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced replay, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if _, ok := specs[n]; !ok {
			fmt.Fprintf(stderr, "ocbench: unknown workload %q (want table2, channelfree, serve or all)\n", *workload)
			return 2
		}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "ocbench: --trace must be 0 or 1")
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	hostLine, _ := json.Marshal(map[string]any{"host": thisHost(), "seed": *seed, "seconds": *seconds, "trace": *trace})
	fmt.Fprintln(stdout, string(hostLine))
	var reps []*report
	for _, n := range names {
		rep, err := runWorkload(specs[n], *seed, dur, *trace == 1)
		if err != nil {
			fmt.Fprintf(stderr, "ocbench: %s: %v\n", n, err)
			return 2
		}
		rep.writeText(stdout)
		reps = append(reps, rep)
	}
	line, correct := resultLine(reps)
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

func runWorkload(s spec, seed int64, seconds time.Duration, traced bool) (*report, error) {
	switch {
	case s.name == "serve":
		return runServe(s, seed, seconds, traced)
	case traced:
		return tracedFlows(s, seed, seconds)
	default:
		return timedFlows(s, seed, seconds)
	}
}
