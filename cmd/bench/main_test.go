package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: github.com/everest-project/everest/internal/labelstore
BenchmarkPublish      	    9124	    129133 ns/op	   15128 B/op	     145 allocs/op
BenchmarkPublish-2    	   10000	    101000 ns/op	   15130 B/op	     145 allocs/op
BenchmarkFig4Overall-2	       1	9612345 ns/op	0.96 precision	312 B/op	4 allocs/op
--- BENCH: BenchmarkNoise
PASS
ok  	github.com/everest-project/everest/internal/labelstore	3.1s
`

func TestParseBenchOutput(t *testing.T) {
	got := parseBenchOutput("./internal/labelstore", sampleOutput)
	want := []Benchmark{
		{Name: "Publish", Package: "./internal/labelstore", GOMAXPROCS: 1, Iterations: 9124,
			Metrics: map[string]float64{"ns/op": 129133, "B/op": 15128, "allocs/op": 145}},
		{Name: "Publish-2", Package: "./internal/labelstore", GOMAXPROCS: 2, Iterations: 10000,
			Metrics: map[string]float64{"ns/op": 101000, "B/op": 15130, "allocs/op": 145}},
		{Name: "Fig4Overall-2", Package: "./internal/labelstore", GOMAXPROCS: 2, Iterations: 1,
			Metrics: map[string]float64{"ns/op": 9612345, "precision": 0.96, "B/op": 312, "allocs/op": 4}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v\nwant %+v", got, want)
	}
}

func row(pkg, name string, ns float64) Benchmark {
	return Benchmark{Name: name, Package: pkg, GOMAXPROCS: gomaxprocsOf(name), Iterations: 1,
		Metrics: map[string]float64{"ns/op": ns}}
}

func writeJSON(t *testing.T, path string, r Report) {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readJSON(t *testing.T, path string) Report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSaveMergesMeasuredRows: a capture into an existing report replaces
// the (package, name) rows it measured in place — the same name in
// another package is another row — appends the rows new to it, keeps
// every other row and the report's capture parameters, and takes the
// fresh environment stamp. Into no file it writes the capture as is.
func TestSaveMergesMeasuredRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	base := Report{Generated: "old", GoVersion: "go-old", GOMAXPROCS: 4, BenchPattern: "full", CPU: "1,2",
		Benchmarks: []Benchmark{row(".", "Run", 1), row("./a", "Publish", 2), row("./b", "Publish", 3), row("./a", "Publish-2", 4)}}
	if got, err := save(path, base); err != nil || !reflect.DeepEqual(readJSON(t, path), base) || !reflect.DeepEqual(got, base) {
		t.Fatalf("save into no file: %v; wrote %+v, want %+v", err, readJSON(t, path), base)
	}

	fresh := Report{Generated: "new", GoVersion: "go-new", GOMAXPROCS: 2, BenchPattern: "Publish|Recover", CPU: "1",
		Benchmarks: []Benchmark{row("./a", "Recover", 5), row("./a", "Publish", 6)}}
	if _, err := save(path, fresh); err != nil {
		t.Fatal(err)
	}
	want := Report{Generated: "new", GoVersion: "go-new", GOMAXPROCS: 2, BenchPattern: "full", CPU: "1,2",
		Benchmarks: []Benchmark{row(".", "Run", 1), row("./a", "Publish", 6), row("./b", "Publish", 3), row("./a", "Publish-2", 4), row("./a", "Recover", 5)}}
	if got := readJSON(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged report %+v\nwant %+v", got, want)
	}
}

// TestEmitRefusesEmptyCapture: a capture that parsed no benchmark is an
// error and leaves the report at -out byte for byte as it was; a report
// that does not parse is not overwritten either.
func TestEmitRefusesEmptyCapture(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	writeJSON(t, path, Report{BenchPattern: "full", Benchmarks: []Benchmark{row(".", "Run", 1)}})
	before, _ := os.ReadFile(path)
	err := emit(path, Report{BenchPattern: "^(Publish|Recover)$"}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "nothing written") {
		t.Fatalf("empty capture: err %v", err)
	}
	if after, _ := os.ReadFile(path); string(after) != string(before) {
		t.Fatalf("empty capture rewrote the report:\n%s", after)
	}
	if err := emit(filepath.Join(dir, "none.json"), Report{}, nil, nil); err == nil {
		t.Fatal("empty capture into a new file accepted")
	}
	if _, err := os.Stat(filepath.Join(dir, "none.json")); err == nil {
		t.Fatal("empty capture created a file")
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := save(bad, Report{Benchmarks: []Benchmark{row(".", "Run", 1)}}); err == nil {
		t.Fatal("merged into a file that is not a report")
	}
	if data, _ := os.ReadFile(bad); string(data) != "not json" {
		t.Fatalf("unparsable report overwritten: %q", data)
	}
}
