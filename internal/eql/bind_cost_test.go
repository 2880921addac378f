package eql

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// allocated is the allocation count and bytes of one call of f, averaged
// over runs on one P with the collector off — testing.AllocsPerRun, with
// bytes.
func allocated(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestBindCostIndependentOfFrames: binding resolves names and describes
// sources; it reads no frame, so a script over videos a hundred times
// longer binds in the same bytes and the same allocations.
func TestBindCostIndependentOfFrames(t *testing.T) {
	bind := func(frames int) (uint64, uint64) {
		s := parsedBenchScript(t, frames)
		return allocated(50, func() {
			if _, err := BindScript(s); err != nil {
				t.Fatal(err)
			}
		})
	}
	shortAllocs, shortBytes := bind(1500)
	longAllocs, longBytes := bind(150000)
	t.Logf("BindScript of four statements: %d allocations, %d bytes at 1,500 frames; %d, %d at 150,000", shortAllocs, shortBytes, longAllocs, longBytes)
	if shortAllocs != longAllocs || shortBytes != longBytes {
		t.Fatalf("bind cost grows with the video: %d allocations / %d bytes at 1,500 frames, %d / %d at 150,000",
			shortAllocs, shortBytes, longAllocs, longBytes)
	}
	if longAllocs > 64 || longBytes > 8<<10 {
		t.Fatalf("binding four statements took %d allocations and %d bytes, budget 64 and 8 KB", longAllocs, longBytes)
	}
}

// TestWarmScriptAllocationBudget: a warm execution of the benchmark's
// script shape — parse, bind, plan, three warm queries, one EXPLAIN —
// stays under 0.27 MB. The bound may only tighten.
func TestWarmScriptAllocationBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's own allocations are counted")
	}
	script := benchScript(1500)
	ss := warmSession(t, script)
	opt := ScriptOptions{Procs: 1}
	allocs, bytes := allocated(20, func() {
		if _, err := ss.ExecWith(script, opt); err != nil {
			t.Fatal(err)
		}
	})
	mb := float64(bytes) / (1 << 20)
	t.Logf("a warm execution allocated %.3f MB in %d allocations", mb, allocs)
	if mb >= 0.27 {
		t.Fatalf("a warm execution allocated %.3f MB, budget 0.27 MB", mb)
	}
}

// TestExplainOnlyRelationCostsNothing: a relation that only EXPLAIN
// statements touch is never ingested and never generates a timeline —
// explaining a query over three million frames, whose per-frame count
// table alone would be 6 MB, allocates kilobytes.
func TestExplainOnlyRelationCostsNothing(t *testing.T) {
	const explained = `EXPLAIN SELECT TOP 5 FRAMES FROM "Taipei-bus" RANK BY count(car) LIMIT FRAMES 3000000`
	ss := NewScriptSession()
	ingests := 0
	ss.OnIngestStart = func(string, string) { ingests++ }
	script := scriptA + ";" + explained
	var res *ScriptResult
	_, bytes := allocated(1, func() { // the warm-up call ingests scriptA's relation
		var err error
		if res, err = ss.Exec(script); err != nil {
			t.Fatal(err)
		}
	})
	if ingests != 1 || len(ss.Entries()) != 1 || res.Relations != 2 {
		t.Fatalf("%d ingests, %d open relations, %d bound: only the queried relation may be ingested", ingests, len(ss.Entries()), res.Relations)
	}
	if res.Statements[1].Explain == "" || len(res.Statements[0].Units) != 1 {
		t.Fatalf("the script did not run: %+v", res.Statements)
	}
	if bytes >= 1<<20 {
		t.Fatalf("explaining a 3,000,000-frame relation beside a warm query allocated %.1f MB: its timeline was generated", float64(bytes)/(1<<20))
	}
}
