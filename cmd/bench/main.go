// Command bench captures the repository's benchmark suite into a
// machine-readable JSON file (BENCH_engine.json by default), so
// successive PRs leave a performance trajectory that can be diffed
// instead of re-measured from scratch.
//
// It shells out to `go test -run ^$ -bench <pattern> -benchmem` for each
// selected package, parses the standard benchmark output lines —
// including custom metrics such as precision and speedup — and writes one
// JSON document with the environment stamp (Go version, GOMAXPROCS) the
// numbers were taken under. Each benchmark additionally records the
// GOMAXPROCS it ran at (parsed from the -N name suffix), and -cpu runs
// the suite at several worker counts so parallel-path wins are visible
// in the captured file, not hidden behind a serial-only run.
//
// Usage:
//
//	go run ./cmd/bench                        # engine-relevant defaults
//	go run ./cmd/bench -bench . -pkg ./...    # everything (slow)
//	go run ./cmd/bench -out BENCH_engine.json -benchtime 1x
//	go run ./cmd/bench -compare BENCH_engine.json   # fresh run vs committed
//	make bench                                # first form
//	make bench-diff                           # compare form
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name, including any -cpu suffix.
	Name string `json:"name"`
	// Package is the Go package the benchmark lives in.
	Package string `json:"package"`
	// GOMAXPROCS is the worker count this run used, parsed from the
	// benchmark name's -N suffix (absent suffix means 1).
	GOMAXPROCS int `json:"gomaxprocs"`
	// Iterations is b.N of the final run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value: ns/op, B/op, allocs/op plus any custom
	// b.ReportMetric units (precision, speedup, …).
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the document written to the output file.
type Report struct {
	// Generated is the capture timestamp (RFC 3339).
	Generated string `json:"generated"`
	// GoVersion and GOMAXPROCS stamp the environment.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// BenchPattern, Benchtime and CPU echo the capture parameters.
	BenchPattern string `json:"bench_pattern"`
	Benchtime    string `json:"benchtime"`
	CPU          string `json:"cpu,omitempty"`
	// Benchmarks are the parsed results.
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	var (
		out       = flag.String("out", "BENCH_engine.json", "output JSON path (empty to skip writing)")
		pattern   = flag.String("bench", "Fig4Overall|CMDNGridTrain|ProxyPredict|TrainGridPoint|SelectBatch|EngineRun|Prepare|Start|Execute|FrameRelation|WindowRelation|Quantize|OracleMux|StreamingIngest|FollowDeltas|SegmentClose|ParseScript|BindScript|ChooseSet|ExecWarm|NewSynthetic|Timeline|ExtractFeatures|CountUDFScore|Render|Fit|Publish|Recover", "benchmark regexp")
		pkgs      = flag.String("pkg", ".,./internal/cmdn,./internal/core,./internal/engine,./internal/uncertain,./internal/eql,./internal/video,./internal/vision,./internal/nn,./internal/labelstore,./internal/durable", "comma-separated packages")
		benchtime = flag.String("benchtime", "", "passed to -benchtime when non-empty (e.g. 1x, 2s)")
		cpu       = flag.String("cpu", "1,8", "passed to -cpu: comma-separated GOMAXPROCS values per benchmark (empty for the go test default)")
		compare   = flag.String("compare", "", "baseline JSON to diff the fresh run against (e.g. the committed BENCH_engine.json)")
	)
	flag.Parse()

	var baseline *Report
	if *compare != "" {
		data, err := os.ReadFile(*compare)
		if err != nil {
			fatalf("reading baseline: %v", err)
		}
		baseline = new(Report)
		if err := json.Unmarshal(data, baseline); err != nil {
			fatalf("parsing baseline %s: %v", *compare, err)
		}
		// In compare mode the default output would clobber the baseline
		// being compared; write only where -out was given explicitly.
		explicitOut := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "out" {
				explicitOut = true
			}
		})
		if !explicitOut {
			*out = ""
		}
	}

	report := Report{
		Generated:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		BenchPattern: *pattern,
		Benchtime:    *benchtime,
		CPU:          *cpu,
	}
	for _, pkg := range strings.Split(*pkgs, ",") {
		pkg = strings.TrimSpace(pkg)
		if pkg == "" {
			continue
		}
		args := []string{"test", "-run", "^$", "-bench", *pattern, "-benchmem"}
		if *benchtime != "" {
			args = append(args, "-benchtime", *benchtime)
		}
		if *cpu != "" {
			args = append(args, "-cpu", *cpu)
		}
		args = append(args, pkg)
		fmt.Fprintf(os.Stderr, "bench: go %s\n", strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fatalf("%s: %v", pkg, err)
		}
		report.Benchmarks = append(report.Benchmarks, parseBenchOutput(pkg, buf.String())...)
	}

	if *out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "bench: wrote %d results to %s\n", len(report.Benchmarks), *out)
	}
	if baseline != nil {
		if err := diff(os.Stdout, baseline, &report); err != nil {
			fatalf("%v", err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// benchKey identifies one benchmark run across reports: package plus
// full name (the -N cpu suffix included, so each worker count is its
// own series).
func benchKey(b Benchmark) string { return b.Package + " " + b.Name }

// headlineMetrics are the units diffed per benchmark, in print order;
// custom metrics (precision, speedup, …) ride along after them.
var headlineMetrics = []string{"ns/op", "B/op", "allocs/op"}

// diff prints per-benchmark deltas of a fresh run against a baseline
// report. Every baseline benchmark must appear in the fresh run — a
// missing one fails loudly, because a silently dropped benchmark is
// how serving-path regressions slip through. Fresh-only benchmarks are
// listed as new, without failing.
func diff(w *os.File, baseline, fresh *Report) error {
	freshBy := make(map[string]Benchmark, len(fresh.Benchmarks))
	for _, b := range fresh.Benchmarks {
		freshBy[benchKey(b)] = b
	}
	baseBy := make(map[string]Benchmark, len(baseline.Benchmarks))
	var missing []string
	for _, b := range baseline.Benchmarks {
		baseBy[benchKey(b)] = b
		if _, ok := freshBy[benchKey(b)]; !ok {
			missing = append(missing, benchKey(b))
		}
	}

	fmt.Fprintf(w, "benchmark diff: baseline %s (go %s, GOMAXPROCS %d) vs fresh run (go %s, GOMAXPROCS %d)\n\n",
		baseline.Generated, baseline.GoVersion, baseline.GOMAXPROCS, fresh.GoVersion, fresh.GOMAXPROCS)
	keys := make([]string, 0, len(freshBy))
	for k := range freshBy {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	tw := bufio.NewWriter(w)
	for _, k := range keys {
		nb := freshBy[k]
		ob, inBase := baseBy[k]
		if !inBase {
			fmt.Fprintf(tw, "%-60s new (no baseline)\n", k)
			continue
		}
		fmt.Fprintf(tw, "%s\n", k)
		// Diff the union of both runs' units, so a metric that vanished
		// from the fresh run is reported rather than silently skipped.
		units := append([]string(nil), headlineMetrics...)
		seen := map[string]bool{"ns/op": true, "B/op": true, "allocs/op": true}
		extra := make([]string, 0, len(nb.Metrics)+len(ob.Metrics))
		for u := range nb.Metrics {
			if !seen[u] {
				seen[u] = true
				extra = append(extra, u)
			}
		}
		for u := range ob.Metrics {
			if !seen[u] {
				seen[u] = true
				extra = append(extra, u)
			}
		}
		sort.Strings(extra)
		units = append(units, extra...)
		for _, u := range units {
			nv, nok := nb.Metrics[u]
			ov, ook := ob.Metrics[u]
			switch {
			case nok && ook:
				delta := "~"
				if ov != 0 {
					delta = fmt.Sprintf("%+.1f%%", 100*(nv-ov)/ov)
				}
				fmt.Fprintf(tw, "    %-12s %18.6g  ->  %18.6g   %s\n", u, ov, nv, delta)
			case nok:
				fmt.Fprintf(tw, "    %-12s %18s  ->  %18.6g   (new metric)\n", u, "-", nv)
			case ook:
				fmt.Fprintf(tw, "    %-12s %18.6g  ->  %18s   (metric missing from fresh run)\n", u, ov, "-")
				missing = append(missing, k+" ["+u+"]")
			}
		}
	}
	tw.Flush()
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("%d baseline benchmark(s) or metric(s) missing from the fresh run:\n  %s\n(was a benchmark or ReportMetric renamed or dropped, or the -bench/-pkg/-cpu selection narrowed?)",
			len(missing), strings.Join(missing, "\n  "))
	}
	return nil
}

// parseBenchOutput extracts Benchmark entries from `go test -bench`
// stdout. A result line looks like:
//
//	BenchmarkFoo-8   	 124	 9612345 ns/op	 0.96 precision	 312 B/op	 4 allocs/op
//
// i.e. name, iteration count, then (value, unit) pairs.
func parseBenchOutput(pkg, out string) []Benchmark {
	var results []Benchmark
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		b := Benchmark{
			Name:       name,
			Package:    pkg,
			GOMAXPROCS: gomaxprocsOf(name),
			Iterations: iters,
			Metrics:    make(map[string]float64),
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			b.Metrics[fields[i+1]] = v
		}
		results = append(results, b)
	}
	return results
}

// gomaxprocsOf parses the -N worker-count suffix go test appends to
// benchmark names when GOMAXPROCS != 1; no suffix means 1.
func gomaxprocsOf(name string) int {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return 1
	}
	return n
}
