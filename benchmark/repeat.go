package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// repeatRuns runs the workload n times, each in a process of its own
// (one process per run, like the gated runs), and prints per-metric min,
// median, max and max÷min, flagging an end-to-end metric whose max÷min
// exceeds 1 + its bound: two of those runs, taken as parent and change,
// would read as a regression. It is the noise evidence in README.md.
func repeatRuns(o options, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames
	if o.Workload != "" {
		names = []string{o.Workload}
	}
	for _, name := range names {
		values := make(map[string][]float64)
		digests := make(map[string]bool)
		failed := 0
		for r := 0; r < n; r++ {
			args := []string{
				"-workload", name,
				"-seed", strconv.FormatUint(o.Seed, 10),
				"-seconds", strconv.Itoa(o.Seconds),
			}
			if o.Trace {
				args = append(args, "-trace", "1")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, r+1, err)
			}
			rep, err := parseReport(out)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, r+1, err)
			}
			failed += rep.Failed
			digests[rep.Digest] = true
			for k, v := range rep.result().Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		fmt.Printf("%s: %d runs, seed %d, %d failed ops, %d distinct digest(s)\n", name, n, o.Seed, failed, len(digests))
		fmt.Printf("  %-32s %12s %12s %12s %8s\n", "metric", "min", "median", "max", "max/min")
		defs := endToEnd
		if o.Trace {
			defs = perLayer
		}
		for _, d := range defs {
			lo, hi := minMax(values[d.Name])
			flag := ""
			if !o.Trace && ratio(hi, lo) > 1+d.Bound {
				flag = "  <-- above " + strconv.FormatFloat(1+d.Bound, 'f', -1, 64)
			}
			fmt.Printf("  %-32s %12.6g %12.6g %12.6g %8.4f%s\n", d.Name, lo, median(values[d.Name]), hi, ratio(hi, lo), flag)
		}
	}
	return nil
}

// parseReport finds the "report {...}" line in a run's output.
func parseReport(out []byte) (*report, error) {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "report "); ok {
			var rep report
			if err := json.Unmarshal([]byte(rest), &rep); err != nil {
				return nil, err
			}
			return &rep, nil
		}
	}
	return nil, fmt.Errorf("no report line in the run's output")
}
