package engine

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/everest-project/everest/internal/labelstore"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
	"github.com/everest-project/everest/internal/xrand"
)

// windowPlans are the window plans Execute over the memo is checked
// under: tumbling at K of one and of five, sliding (overlapping, so the
// union bound), and a tumbling deadline answered degraded.
func windowPlans(t *testing.T) map[string]Plan {
	t.Helper()
	shapes := map[string]func(p *Plan){
		"tumbling K=1":      func(p *Plan) { p.K = 1 },
		"tumbling K=5":      func(p *Plan) {},
		"sliding":           func(p *Plan) { p.Window = WindowSpec{Size: 40, Stride: 15} },
		"degraded deadline": func(p *Plan) { p.DeadlineMS, p.DegradedOK = 40, true },
	}
	plans := make(map[string]Plan, len(shapes))
	for name, shape := range shapes {
		p := testPlan(5)
		p.BatchSize = 2
		p.Window = WindowSpec{Size: 30}
		shape(&p)
		plan, err := NewPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		plans[name] = plan
	}
	return plans
}

// unlabelledReps returns the representatives Phase 1 did not label —
// the frames whose cache label changes a window — ascending.
func unlabelledReps(a *Artifact) []int {
	var reps []int
	for f, rep := range a.RepOf {
		if int(rep) == f {
			if _, ok := a.Exact[int32(f)]; !ok {
				reps = append(reps, f)
			}
		}
	}
	return reps
}

// repFrames returns the first and last frame f represents.
func repFrames(a *Artifact, f int) (lo, hi int) {
	lo, hi = f, f
	for i, rep := range a.RepOf {
		if int(rep) == f {
			lo, hi = min(lo, i), max(hi, i)
		}
	}
	return lo, hi
}

// windowOverlays returns the overlays a window query is checked under,
// each made by its own call (a run records into its overlay): those of
// overlaysFor, plus a label on one representative whose frames lie in
// one 30-frame window, one on a representative whose frames straddle
// two, a label on every unlabelled representative (every window
// touched), and labels on Phase 1 frames only (no window touched).
func windowOverlays(seed uint64, a *Artifact) map[string]*labelstore.Overlay {
	overlays := overlaysFor(xrand.New(seed).Split("overlays"), a)
	var inOne, straddling, every labelstore.Map
	for _, f := range unlabelledReps(a) {
		score := float64(7*f%11) + 0.5
		every = every.Set(f, score)
		lo, hi := repFrames(a, f)
		if lo/30 == hi/30 && inOne.Len() == 0 {
			inOne = inOne.Set(f, score)
		}
		if lo/30 != hi/30 && straddling.Len() == 0 && hi < a.TotalFrames/30*30 {
			straddling = straddling.Set(f, score)
		}
	}
	var phase1 labelstore.Map
	for f, s := range a.Exact {
		phase1 = phase1.Set(int(f), s+3)
	}
	overlays["one window"] = labelstore.NewOverlay(inOne)
	overlays["straddling"] = labelstore.NewOverlay(straddling)
	overlays["every window"] = labelstore.NewOverlay(every)
	overlays["phase 1 only"] = labelstore.NewOverlay(phase1)
	return overlays
}

// assertWindowExecuteMatchesReference checks every window plan's
// Execute over the memo against referenceExecute — the relation built
// from scratch and a run with no override over it — bit for bit (outcome, Stats,
// every clock phase, every recorded label), under every window overlay;
// and WindowRelation against referenceWindowRelation.
func assertWindowExecuteMatchesReference(t *testing.T, when string, a *Artifact, src video.Source, udf vision.UDF, seed uint64) {
	t.Helper()
	qopt := udf.Quantize()
	for pname, p := range windowPlans(t) {
		got, want := windowOverlays(seed, a), windowOverlays(seed, a)
		for name, labels := range got {
			rel, gerr := a.WindowRelation(p.Window, qopt, labels, 1, nil)
			wantRel, werr := referenceWindowRelation(a, p.Window, qopt, want[name])
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(rel, wantRel) {
				t.Fatalf("%s, plan %s, overlay %s: WindowRelation differs from the reference (errors %v, %v)", when, pname, name, gerr, werr)
			}
			out, gerr := Execute(p, Binding{Src: src, UDF: udf, Artifact: a, Labels: labels})
			ref, werr := referenceExecute(p, a, src, udf, want[name])
			if g, w := outcomeBits(out, gerr, labels), outcomeBits(ref, werr, want[name]); g != w {
				t.Fatalf("%s, plan %s, overlay %s: Execute differs from the reference:\n got %s\nwant %s", when, pname, name, g, w)
			}
		}
	}
}

// touchedUnder is the windows a query of shape w under labels
// re-aggregates.
func touchedUnder(t *testing.T, a *Artifact, w WindowSpec, qopt uncertain.QuantizeOptions, labels *labelstore.Overlay) []int {
	t.Helper()
	v, err := a.memo(w.d0Key(qopt))
	if err != nil {
		t.Fatal(err)
	}
	return v.touched(labels)
}

// TestWindowMemoMatchesReference: on the ingested fixture and on random
// artifacts whose clips do and do not divide the window, a window query
// over the memo answers exactly what building its relation from scratch
// answers — cold, warm, after each of 1–3 Appends (which extend the memo
// over the new windows only), and under a second quantization and back.
func TestWindowMemoMatchesReference(t *testing.T) {
	fix, src, udf := fixture(t)
	r := xrand.New(40).Split("window-memo")
	assertWindowExecuteMatchesReference(t, "fixture", fix, src, udf, r.Uint64())

	counting := uncertain.DefaultCountingOptions()
	capped := uncertain.QuantizeOptions{Step: 0.5, MinLevel: 0, MaxLevel: 12, TruncSigma: 2}
	arts := []*Artifact{fix.Clone()}
	for _, clip := range []int{7, 10, 13, 30} {
		arts = append(arts, randomArtifactClips(r, 200+r.Intn(300), clip))
	}
	for i, a := range arts {
		name := fmt.Sprintf("random %d", i)
		if i == 0 {
			name = "fixture clone"
		}
		assertWindowExecuteMatchesReference(t, name+" cold", a, nil, tableUDF{counting}, r.Uint64())
		assertWindowExecuteMatchesReference(t, name+" warm", a, nil, tableUDF{counting}, r.Uint64())
		for appends := 1; appends <= 3; appends++ {
			before, err := a.WindowRelation(WindowSpec{Size: 30, Stride: 30}, counting, nil, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Append(randomArtifactClips(r, 40+r.Intn(120), 7+r.Intn(10)), a.TotalFrames); err != nil {
				t.Fatal(err)
			}
			when := fmt.Sprintf("%s after append %d", name, appends)
			assertWindowExecuteMatchesReference(t, when, a, nil, tableUDF{counting}, r.Uint64())
			// Extended, not rebuilt: the old uncertain windows are the
			// very distributions aggregated before the append. (Every
			// point mass shares one table, so a certain window's table
			// says nothing about when it was built.)
			after, err := a.WindowRelation(WindowSpec{Size: 30, Stride: 30}, counting, nil, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			compared := 0
			for i := range before {
				if len(before[i].Dist.P) > 1 {
					compared++
					if &before[i].Dist.P[0] != &after[i].Dist.P[0] {
						t.Fatalf("%s: append re-aggregated window %d", when, i)
					}
				}
			}
			if compared == 0 {
				t.Fatalf("%s: no uncertain window before the append; the check is vacuous", when)
			}
		}
		assertWindowExecuteMatchesReference(t, name+" other quantization", a, nil, tableUDF{capped}, r.Uint64())
		assertWindowExecuteMatchesReference(t, name+" first quantization again", a, nil, tableUDF{counting}, r.Uint64())
	}
}

// pointMassTable is the table every point mass shares: P, CDF and
// log-CDF back to back, the three floats uncertain.Certain slices (P's
// capacity is one, so only unsafe reads past it).
func pointMassTable() [3]float64 {
	d := uncertain.Certain(0)
	return [3]float64(unsafe.Slice(&d.P[0], 3))
}

// TestExecuteLeavesPointMassTable: window queries under overlays that
// touch windows (certain ones among them) and frame queries under
// overlays pass point masses through Start as overrides, and none of
// them writes the one table every point mass shares.
func TestExecuteLeavesPointMassTable(t *testing.T) {
	a := randomArtifactClips(xrand.New(43).Split("window-memo"), 400, 7)
	udf := tableUDF{uncertain.DefaultCountingOptions()}
	plans := windowPlans(t)
	maps.Copy(plans, executePlans(t))
	for pname, p := range plans {
		for name, labels := range windowOverlays(44, a) {
			if _, err := Execute(p, Binding{UDF: udf, Artifact: a, Labels: labels}); err != nil {
				t.Fatalf("plan %s, overlay %s: %v", pname, name, err)
			}
			if got := pointMassTable(); got != [3]float64{1, 1, 0} {
				t.Fatalf("after plan %s under overlay %s the point-mass table reads %v, want [1 1 0]", pname, name, got)
			}
		}
	}
}

// TestWindowMemoTouchesOnlyWhatTheOverlayChanges: the windows a query
// re-aggregates are exactly those overlapping the frames of the
// representatives its overlay labels and Phase 1 did not — none for no
// overlay, an empty one or Phase 1 frames only; one for a
// representative inside a window, two for one straddling a boundary;
// every window when every representative is labelled.
func TestWindowMemoTouchesOnlyWhatTheOverlayChanges(t *testing.T) {
	a := randomArtifactClips(xrand.New(41).Split("window-memo"), 400, 7)
	qopt := uncertain.DefaultCountingOptions()
	w := WindowSpec{Size: 30, Stride: 30}
	overlays := windowOverlays(42, a)
	for _, name := range []string{"nil", "empty", "phase 1 only"} {
		if got := touchedUnder(t, a, w, qopt, overlays[name]); got != nil {
			t.Fatalf("overlay %s touches windows %v", name, got)
		}
	}
	single, straddle := overlays["one window"], overlays["straddling"]
	for _, c := range []struct {
		labels *labelstore.Overlay
		want   int
	}{{single, 1}, {straddle, 2}} {
		var f int
		c.labels.Range(func(g int, _ float64) bool { f = g; return false })
		lo, hi := repFrames(a, f)
		want := []int{lo / 30, hi / 30}[:c.want]
		if got := touchedUnder(t, a, w, qopt, c.labels); !reflect.DeepEqual(got, want) {
			t.Fatalf("a label on %d (frames %d..%d) touches windows %v, want %v", f, lo, hi, got, want)
		}
	}
	if got := touchedUnder(t, a, w, qopt, overlays["every window"]); len(got) != a.TotalFrames/30 {
		t.Fatalf("labelling every representative touches %d of %d windows", len(got), a.TotalFrames/30)
	}
}

// TestWindowMemoFailedWindowErrorParity: a window whose overlay-free
// aggregation fails (a NaN-variance mixture on one of its
// representatives) stays failed in the memo and is re-aggregated by
// every query, so the error a query reports is the lowest failing
// window under its own overlay — the reference's — and a query whose
// overlay labels every bad representative gets an answer.
func TestWindowMemoFailedWindowErrorParity(t *testing.T) {
	a := randomArtifactClips(xrand.New(43).Split("window-memo"), 300, 10)
	reps := unlabelledReps(a)
	bad := []int{reps[len(reps)/4], reps[3*len(reps)/4]}
	for _, f := range bad {
		i, _ := slices.BinarySearch(a.Retained, int32(f))
		a.Mixtures[i] = uncertain.Mixture{{Weight: 1, Mean: 2, Sigma: math.NaN()}}
	}
	udf := tableUDF{uncertain.DefaultCountingOptions()}
	var first, both labelstore.Map
	first = first.Set(bad[0], 4)
	both = first.Set(bad[1], 6)
	cases := map[string]func() *labelstore.Overlay{
		"nil":           func() *labelstore.Overlay { return nil },
		"first labeled": func() *labelstore.Overlay { return labelstore.NewOverlay(first) },
		"both labeled":  func() *labelstore.Overlay { return labelstore.NewOverlay(both) },
	}
	for pname, p := range windowPlans(t) {
		for name, overlay := range cases {
			for round := 0; round < 2; round++ { // cold, then over the memo
				got, want := overlay(), overlay()
				out, gerr := Execute(p, Binding{UDF: udf, Artifact: a, Labels: got})
				ref, werr := referenceExecute(p, a, nil, udf, want)
				if g, w := outcomeBits(out, gerr, got), outcomeBits(ref, werr, want); g != w {
					t.Fatalf("plan %s, overlay %s, round %d: Execute differs from the reference:\n got %s\nwant %s", pname, name, round, g, w)
				}
				if (werr == nil) != (name == "both labeled") {
					t.Fatalf("plan %s, overlay %s: reference error %v", pname, name, werr)
				}
			}
		}
	}
}

// TestWindowRelationRejectsNonPositiveSize: a window size of zero is
// the frame relation's memo key, so WindowRelation refuses it (and a
// negative one) rather than handing back the frame relation.
func TestWindowRelationRejectsNonPositiveSize(t *testing.T) {
	a := randomArtifact(xrand.New(46).Split("window-memo"), 200)
	for _, size := range []int{0, -30} {
		if rel, err := a.WindowRelation(WindowSpec{Size: size}, uncertain.DefaultCountingOptions(), nil, 1, nil); err == nil {
			t.Fatalf("a window of size %d gave %d tuples and no error", size, len(rel))
		}
	}
}

// TestMemoBound: the frame relation and window shapes share one memo
// of maxMemos entries, the most recently used; an entry of either kind
// still held is not rebuilt. The frame relation and the three shapes
// the benchmark asks of one index are all held once warm, in any order,
// and a second quantization gets an entry of its own.
func TestMemoBound(t *testing.T) {
	a := randomArtifact(xrand.New(44).Split("window-memo"), 600)
	counting := uncertain.DefaultCountingOptions()
	capped := uncertain.QuantizeOptions{Step: 0.5, MinLevel: 0, MaxLevel: 12, TruncSigma: 2}
	relOf := func(w WindowSpec, qopt uncertain.QuantizeOptions) uncertain.Relation {
		t.Helper()
		v, err := a.memo(w.d0Key(qopt))
		if err != nil {
			t.Fatal(err)
		}
		return v.rel
	}
	held := func(w WindowSpec, qopt uncertain.QuantizeOptions, rel uncertain.Relation) bool {
		t.Helper()
		return &relOf(w, qopt)[0] == &rel[0]
	}
	frame := WindowSpec{}
	for size := 10; size < 10+3*maxMemos; size++ {
		recent := relOf(WindowSpec{Size: size, Stride: size}, counting)
		if n := len(a.memos); n > maxMemos {
			t.Fatalf("after shape %d the memo holds %d entries, bound %d", size, n, maxMemos)
		}
		// The previous shape is still held: asking it again is a hit
		// that makes it the most recent, and the shape before stays too.
		if size > 10 {
			prev := relOf(WindowSpec{Size: size - 1, Stride: size - 1}, counting)
			if !held(WindowSpec{Size: size - 1, Stride: size - 1}, counting, prev) {
				t.Fatalf("shape %d was rebuilt while held", size-1)
			}
		}
		if !held(Plan{Window: WindowSpec{Size: size}}.Normalize().Window, counting, recent) {
			t.Fatalf("shape %d (stride resolved by Normalize) was rebuilt while held", size)
		}
		// The frame relation, asked between shapes, stays held too.
		rel := relOf(frame, counting)
		if !held(frame, counting, rel) {
			t.Fatalf("the frame relation was rebuilt while held, after shape %d", size)
		}
	}
	if len(a.memos) != maxMemos {
		t.Fatalf("the memo holds %d entries, want the bound %d", len(a.memos), maxMemos)
	}

	// The frame relation outlives maxMemos-1 other entries asked after
	// it, and the next one evicts it.
	rel := relOf(frame, counting)
	for size := 100; size < 100+maxMemos-1; size++ {
		relOf(WindowSpec{Size: size, Stride: size}, counting)
	}
	if !held(frame, counting, rel) {
		t.Fatalf("the frame relation was evicted by %d other entries", maxMemos-1)
	}
	for size := 200; size < 200+maxMemos; size++ {
		relOf(WindowSpec{Size: size, Stride: size}, counting)
	}
	if held(frame, counting, rel) {
		t.Fatalf("the frame relation outlived %d other entries", maxMemos)
	}

	// Warm, the frame relation and the benchmark's shapes are all held,
	// whatever order they are asked in.
	keys := []WindowSpec{frame, {Size: 30, Stride: 30}, {Size: 60, Stride: 60}, {Size: 30, Stride: 15}}
	rels := make([]uncertain.Relation, len(keys))
	for i, w := range keys {
		rels[i] = relOf(w, counting)
	}
	for _, order := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {0, 1, 2, 3}} {
		for _, i := range order {
			if !held(keys[i], counting, rels[i]) {
				t.Fatalf("%+v was rebuilt while the memo held the benchmark's entries", keys[i])
			}
		}
	}

	// A second quantization is its own entry: the first one's frame
	// relation stays held beside it.
	if other := relOf(frame, capped); &other[0] == &rels[0][0] {
		t.Fatal("a second quantization shares the first one's frame relation")
	}
	if !held(frame, counting, rels[0]) {
		t.Fatal("a second quantization evicted the first one's frame relation")
	}
}

// TestWindowMemoConcurrent executes window plans of three shapes and a
// frame plan, and builds window and frame relations, on one cold
// artifact from 8 goroutines at once — each entry's first build, its
// preparation and its joint CDF's first build race with their first
// readers, all under the artifact's one lock; run under -race — some
// asking for two workers, which Phase 2 ignores: every execution, uncached or over its own copy
// of a warm overlay, answers the reference outcome, and every relation
// is the reference relation.
func TestWindowMemoConcurrent(t *testing.T) {
	r := xrand.New(45).Split("window-memo")
	a := randomArtifactClips(r, 900, 13)
	udf := tableUDF{uncertain.DefaultCountingOptions()}
	qopt := udf.Quantize()
	shapes := []WindowSpec{{Size: 30, Stride: 30}, {Size: 40, Stride: 15}, {Size: 60, Stride: 60}, {}}
	plans := make([]Plan, len(shapes))
	for i, w := range shapes {
		p := testPlan(5)
		p.Window = w
		plan, err := NewPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = plan
	}
	overlaySeed := r.Uint64()
	warm := func() *labelstore.Overlay { return windowOverlays(overlaySeed, a)["base-and-fresh"] }
	relation := func(w WindowSpec, labels *labelstore.Overlay, procs int) (uncertain.Relation, error) {
		if !w.Enabled() {
			return a.FrameRelation(qopt, labels)
		}
		return a.WindowRelation(w, qopt, labels, procs, nil)
	}
	want := make([][2]string, len(shapes))
	wantRel := make([]uncertain.Relation, len(shapes))
	for i, p := range plans {
		cold, err := referenceExecute(p, a, nil, udf, nil)
		labels := warm()
		hot, herr := referenceExecute(p, a, nil, udf, labels)
		want[i] = [2]string{outcomeBits(cold, err, nil), outcomeBits(hot, herr, labels)}
		if shapes[i].Enabled() {
			wantRel[i], err = referenceWindowRelation(a, shapes[i], qopt, warm())
		} else {
			wantRel[i], err = referenceFrameRelation(a, qopt, warm())
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := plans[g%4]
			p.Procs = 1 + g%2
			var labels *labelstore.Overlay
			if g >= 4 {
				labels = warm()
			}
			out, err := Execute(p, Binding{UDF: udf, Artifact: a, Labels: labels})
			if got, want := outcomeBits(out, err, labels), want[g%4][g/4]; got != want {
				t.Errorf("goroutine %d, shape %+v: Execute differs from the reference:\n got %s\nwant %s", g, p.Window, got, want)
			}
			i := (g + 1) % 4
			if rel, err := relation(shapes[i], warm(), 1+g%2); err != nil || !reflect.DeepEqual(rel, wantRel[i]) {
				t.Errorf("goroutine %d: relation %+v differs from the reference (err %v)", g, shapes[i], err)
			}
		}(g)
	}
	wg.Wait()
}

// TestWindowMemoSharedAcrossOverlays: eight goroutines run window
// queries of a tumbling and a sliding shape over one artifact, three
// rounds each, every goroutine under an overlay of its own — label sets
// that overlap, and that two goroutines share, so each shape's
// quantization memo is filled and read by concurrent queries (run
// under -race): every relation is referenceWindowRelation's and every
// Execute answers the reference outcome. The artifact is a random one,
// and one whose every score has mean 5 — its windows' Gaussians differ
// only in variance, which a memo keyed on the mean alone would confuse.
// Afterwards a window two equal overlays re-aggregate is read from the
// memo, not quantized again.
func TestWindowMemoSharedAcrossOverlays(t *testing.T) {
	a := randomArtifactClips(xrand.New(47).Split("window-memo"), 900, 13)
	oneMean := a.Clone()
	for i, mix := range oneMean.Mixtures {
		if len(mix) > 0 {
			oneMean.Mixtures[i] = uncertain.Mixture{{Weight: 1, Mean: 5, Sigma: 1 + float64(i%3)}}
		}
	}
	for f := range oneMean.Exact {
		oneMean.Exact[f] = 5
	}
	assertMemoSharedAcrossOverlays(t, "random", a, func(f int) float64 { return float64(7*f%11) + 0.5 })
	assertMemoSharedAcrossOverlays(t, "one mean", oneMean, func(int) float64 { return 5 })
}

// assertMemoSharedAcrossOverlays is TestWindowMemoSharedAcrossOverlays
// over one artifact, labelling frame f with score(f).
func assertMemoSharedAcrossOverlays(t *testing.T, name string, a *Artifact, score func(f int) float64) {
	t.Helper()
	udf := tableUDF{uncertain.DefaultCountingOptions()}
	qopt := udf.Quantize()
	shapes := []WindowSpec{{Size: 30, Stride: 30}, {Size: 40, Stride: 15}}
	reps := unlabelledReps(a)
	const goroutines = 8
	// Goroutine g labels every (g%4+2)-th unlabelled representative, so
	// goroutines g and g+4 share a label set and the others share some
	// windows' labels.
	sets := make([]labelstore.Map, goroutines)
	for g := range sets {
		for i, f := range reps {
			if i%(g%4+2) == 0 {
				sets[g] = sets[g].Set(f, score(f))
			}
		}
	}
	overlay := func(g int) *labelstore.Overlay { return labelstore.NewOverlay(sets[g]) }
	plans := make([]Plan, len(shapes))
	wantRel := make([][]uncertain.Relation, len(shapes))
	wantOut := make([][]string, len(shapes))
	for s, w := range shapes {
		p := testPlan(5)
		p.Window = w
		plan, err := NewPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		plans[s] = plan
		wantRel[s] = make([]uncertain.Relation, goroutines)
		wantOut[s] = make([]string, goroutines)
		for g := range goroutines {
			if wantRel[s][g], err = referenceWindowRelation(a, w, qopt, overlay(g)); err != nil {
				t.Fatal(err)
			}
			labels := overlay(g)
			out, err := referenceExecute(plan, a, nil, udf, labels)
			wantOut[s][g] = outcomeBits(out, err, labels)
		}
	}
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := range 3 {
				s := (g + round) % len(shapes)
				if rel, err := a.WindowRelation(shapes[s], qopt, overlay(g), 1, nil); err != nil || !reflect.DeepEqual(rel, wantRel[s][g]) {
					t.Errorf("%s, goroutine %d, round %d: relation %+v differs from the reference (err %v)", name, g, round, shapes[s], err)
				}
				labels := overlay(g)
				out, err := Execute(plans[s], Binding{UDF: udf, Artifact: a, Labels: labels})
				if got := outcomeBits(out, err, labels); got != wantOut[s][g] {
					t.Errorf("%s, goroutine %d, round %d, shape %+v: Execute differs from the reference:\n got %s\nwant %s", name, g, round, shapes[s], got, wantOut[s][g])
				}
			}
		}(g)
	}
	wg.Wait()
	for _, w := range shapes {
		first, err := a.WindowRelation(w, qopt, overlay(0), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		second, err := a.WindowRelation(w, qopt, overlay(4), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		shared := 0
		for _, i := range touchedUnder(t, a, w, qopt, overlay(0)) {
			if len(first[i].Dist.P) > 1 {
				if &first[i].Dist.P[0] != &second[i].Dist.P[0] {
					t.Fatalf("%s, shape %+v: window %d was quantized again under an equal overlay", name, w, i)
				}
				shared++
			}
		}
		if shared == 0 {
			t.Fatalf("%s, shape %+v: no touched window is uncertain; the check is vacuous", name, w)
		}
	}
}

// TestWindowRunBufferNeverLeaks: eight goroutines run tumbling and
// sliding window queries on one artifact, three rounds each, every
// goroutine under an overlay of its own whose labels no other goroutine
// sets — so the windows one query re-aggregates in a pooled run
// relation are windows the next query to take that buffer does not
// touch (run under -race). Every answer is referenceExecute's. Then a
// caller writes every tuple of the relations WindowRelation handed it
// with no overlay (no window touched) and under one, and
// later queries and relations are still the reference's: what
// WindowRelation returns is the caller's, neither the memo nor a pooled
// buffer.
func TestWindowRunBufferNeverLeaks(t *testing.T) {
	a := randomArtifactClips(xrand.New(48).Split("window-memo"), 900, 13)
	udf := tableUDF{uncertain.DefaultCountingOptions()}
	qopt := udf.Quantize()
	shapes := []WindowSpec{{Size: 30, Stride: 30}, {Size: 40, Stride: 15}}
	const goroutines = 8
	sets := make([]labelstore.Map, goroutines)
	for i, f := range unlabelledReps(a) {
		g := i % goroutines
		sets[g] = sets[g].Set(f, float64(5*f%13)+0.5)
	}
	overlay := func(g int) *labelstore.Overlay { return labelstore.NewOverlay(sets[g]) }
	plans := make([]Plan, len(shapes))
	want := make([][]string, len(shapes))
	for s, w := range shapes {
		p := testPlan(5)
		p.Window = w
		plan, err := NewPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		plans[s] = plan
		want[s] = make([]string, goroutines)
		for g := range goroutines {
			labels := overlay(g)
			out, err := referenceExecute(plan, a, nil, udf, labels)
			want[s][g] = outcomeBits(out, err, labels)
		}
	}
	check := func(when string, g, s int) {
		labels := overlay(g)
		out, err := Execute(plans[s], Binding{UDF: udf, Artifact: a, Labels: labels})
		if got := outcomeBits(out, err, labels); got != want[s][g] {
			t.Errorf("%s, overlay %d, shape %+v: Execute differs from the reference:\n got %s\nwant %s", when, g, shapes[s], got, want[s][g])
		}
	}
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := range 3 {
				check(fmt.Sprintf("goroutine %d, round %d", g, round), g, (g+round)%len(shapes))
			}
		}(g)
	}
	wg.Wait()

	for s, w := range shapes {
		for _, labels := range []*labelstore.Overlay{nil, overlay(0)} {
			rel, err := a.WindowRelation(w, qopt, labels, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range rel {
				rel[i] = uncertain.XTuple{ID: rel[i].ID, Dist: uncertain.Certain(40)}
			}
		}
		for g := range goroutines {
			check("after a WindowRelation caller wrote its relation", g, s)
		}
		got, err := a.WindowRelation(w, qopt, overlay(1), 1, nil)
		wantRel, werr := referenceWindowRelation(a, w, qopt, overlay(1))
		if err != nil || werr != nil || !reflect.DeepEqual(got, wantRel) {
			t.Fatalf("shape %+v: after a caller wrote its relation, WindowRelation differs from the reference (errors %v, %v)", w, err, werr)
		}
	}
}
