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
// in the captured file, not hidden behind a serial-only run. The default
// is 1 and the machine's core count: a count above the cores measures
// oversubscription, not parallelism. With -compare and no -cpu, the
// fresh run uses the baseline's recorded -cpu, so the two reports hold
// the same benchmark names.
//
// A capture into an existing report replaces only the rows it measured,
// keyed by (package, name), so re-capturing a subset leaves the rest of
// the baseline as it was; a row whose benchmark left the suite stays
// until removed by hand (-compare then reports it missing). A capture
// that parses no benchmark — a -bench pattern matching nothing — exits
// non-zero and writes nothing.
//
// Usage:
//
//	go run ./cmd/bench                        # engine-relevant defaults
//	go run ./cmd/bench -bench . -pkg ./...    # everything (slow)
//	go run ./cmd/bench -out BENCH_engine.json -benchtime 1x
//	go run ./cmd/bench -bench 'Publish|Recover' -pkg ./internal/labelstore,./internal/durable -cpu 1
//	go run ./cmd/bench -compare BENCH_engine.json   # fresh run vs committed
//	make bench                                # first form
//	make bench-diff                           # compare form
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
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
	// Generated is the timestamp of the latest capture (RFC 3339).
	Generated string `json:"generated"`
	// GoVersion and GOMAXPROCS stamp the latest capture's environment.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// BenchPattern, Benchtime and CPU echo the parameters of the capture
	// that created the report; a merged capture keeps them, since they
	// describe the suite the report covers.
	BenchPattern string `json:"bench_pattern"`
	Benchtime    string `json:"benchtime"`
	CPU          string `json:"cpu,omitempty"`
	// Benchmarks are the parsed results.
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	var (
		out       = flag.String("out", "BENCH_engine.json", "output JSON path (empty to skip writing)")
		pattern   = flag.String("bench", "Fig4Overall|CMDNGridTrain|ProxyPredict|TrainGridPoint|SelectBatch|EngineRun|Prepare|Start|Execute|FrameRelation|WindowRelation|Quantize|OracleMux|StreamingIngest|FollowDeltas|SegmentClose|ParseScript|BindScript|ChooseSet|ExecWarm|NewSynthetic|Timeline|ExtractFeatures|CountUDFScore|Render|Fit|Publish|Recover|ClipPass|FeaturizeSamples|InferMixtures", "benchmark regexp")
		pkgs      = flag.String("pkg", ".,./internal/cmdn,./internal/core,./internal/engine,./internal/uncertain,./internal/eql,./internal/video,./internal/vision,./internal/nn,./internal/labelstore,./internal/durable,./internal/phase1", "comma-separated packages")
		benchtime = flag.String("benchtime", "", "passed to -benchtime when non-empty (e.g. 1x, 2s)")
		cpu       = flag.String("cpu", defaultCPU(), "passed to -cpu: comma-separated GOMAXPROCS values per benchmark (empty for the go test default); with -compare, defaults to the baseline's")
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
		// being compared; write only where -out was given explicitly. The
		// fresh run follows the baseline's worker counts unless -cpu was
		// given, so both reports name the same benchmarks.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if !explicit["out"] {
			*out = ""
		}
		if !explicit["cpu"] {
			*cpu = baseline.CPU
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

	if err := emit(*out, report, baseline, os.Stdout); err != nil {
		fatalf("%v", err)
	}
}

// emit hands a fresh capture on: merged into the report at out (when
// out is set) and diffed against baseline (when set). A capture with no
// benchmark is an error, and nothing is written.
func emit(out string, fresh Report, baseline *Report, w io.Writer) error {
	if len(fresh.Benchmarks) == 0 {
		return fmt.Errorf("-bench %q parsed no benchmark; nothing written (go test matches the function name, BenchmarkX)", fresh.BenchPattern)
	}
	if out != "" {
		written, err := save(out, fresh)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: wrote %d results to %s (%d rows in all)\n",
			len(fresh.Benchmarks), out, len(written.Benchmarks))
	}
	if baseline != nil {
		return diff(w, baseline, &fresh)
	}
	return nil
}

// save merges fresh into the report at path, or writes fresh alone when
// there is none, and returns what it wrote. A file that exists but does
// not parse as a report is an error, not overwritten.
func save(path string, fresh Report) (Report, error) {
	report := fresh
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		var base Report
		if err := json.Unmarshal(data, &base); err != nil {
			return Report{}, fmt.Errorf("merging into %s: %v", path, err)
		}
		report = merge(base, fresh)
	case !errors.Is(err, fs.ErrNotExist):
		return Report{}, err
	}
	if data, err = json.MarshalIndent(report, "", "  "); err != nil {
		return Report{}, err
	}
	return report, os.WriteFile(path, append(data, '\n'), 0o644)
}

// merge returns base with each row fresh measured replaced in place and
// the rows new to it appended in fresh's order; the environment stamp
// is fresh's.
func merge(base, fresh Report) Report {
	out := base
	out.Generated, out.GoVersion, out.GOMAXPROCS = fresh.Generated, fresh.GoVersion, fresh.GOMAXPROCS
	out.Benchmarks = append([]Benchmark(nil), base.Benchmarks...)
	at := make(map[string]int, len(out.Benchmarks))
	for i, b := range out.Benchmarks {
		at[benchKey(b)] = i
	}
	for _, b := range fresh.Benchmarks {
		if i, ok := at[benchKey(b)]; ok {
			out.Benchmarks[i] = b
			continue
		}
		at[benchKey(b)] = len(out.Benchmarks)
		out.Benchmarks = append(out.Benchmarks, b)
	}
	return out
}

// defaultCPU is "1,N" for N = runtime.NumCPU(), or "1" on one core.
func defaultCPU() string {
	if n := runtime.NumCPU(); n > 1 {
		return "1," + strconv.Itoa(n)
	}
	return "1"
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
func diff(w io.Writer, baseline, fresh *Report) error {
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
