// Command benchmark is the repo's end-to-end benchmark: five workloads,
// each chosen for the layer it isolates, measured by eight end-to-end
// metrics in an untraced run and by a per-layer ladder in a separate
// traced run. README.md in this directory says why each workload exists
// and how to read the numbers; BENCHMARK.json at the repo root is the
// contract the numbers are gated by.
//
//	go run ./benchmark -workload query_cold -seed 1            # end-to-end metrics
//	go run ./benchmark -workload query_cold -seed 1 -trace 1   # per-layer metrics
//	go run ./benchmark -workload query_cold -repeat 5          # run-to-run spread
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var o options
	var trace, repeat int
	flag.StringVar(&o.Workload, "workload", "", "one of oneshot_run, query_cold, serve_shared, eql_script, stream_follow")
	flag.Uint64Var(&o.Seed, "seed", 1, "generates the schedule (op order, user assignment, Append cuts); the same seed gives the same inputs and the same digest")
	flag.IntVar(&o.Seconds, "seconds", 15, "nominal length of the measured window; the op count is a fixed function of it")
	flag.IntVar(&trace, "trace", 0, "1 makes the traced run that yields the per-layer metrics")
	flag.StringVar(&o.TraceOut, "trace-out", "", "with -trace 1, write the spans here as Chrome trace-event JSON")
	flag.IntVar(&repeat, "repeat", 0, "run the workload this many times, each in its own process, and print the run-to-run spread")
	flag.Parse()
	o.Trace = trace != 0
	// The durable directory is a temporary one inside the checkout: a run
	// reads and writes nowhere else.
	o.Dir = "."
	if flag.NArg() > 0 || o.Seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments; see -help")
		os.Exit(2)
	}

	if repeat > 0 {
		if err := repeatRuns(o, repeat); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printReport(rep)
}

// printReport prints every metric by name and unit, the full report as
// one JSON line, and — last — the result line the driver reads.
func printReport(rep *report) {
	res := rep.result()
	fmt.Printf("%s seed=%d: %d ops attempted, %d failed; set-up %.2f s (%.2f stolen by the host), window %.2f s (%.2f stolen), whole run %.2f s; digest %s\n",
		rep.Workload, rep.Seed, rep.Attempted, rep.Failed, rep.SetupS, rep.SetupStolenS, rep.WindowS, sum(rep.PassStolenS), rep.TotalS, rep.Digest)
	for _, f := range rep.Failures {
		fmt.Println("  failed:", f)
	}
	if rep.Ladder != "" {
		fmt.Println("  ladder:", rep.Ladder)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-32s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	full, _ := json.Marshal(rep)
	fmt.Printf("report %s\n", full)
	line, _ := json.Marshal(res)
	fmt.Printf("%s\n", line)
}
