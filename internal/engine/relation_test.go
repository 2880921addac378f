package engine

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/everest-project/everest/internal/diffdet"
	"github.com/everest-project/everest/internal/labelstore"
	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/windows"
	"github.com/everest-project/everest/internal/xrand"
)

// referenceFrameRelation is the builder the memoized FrameRelation
// replaced, kept verbatim as the tests' reference: it derives every
// tuple from the artifact's maps on every call.
func referenceFrameRelation(a *Artifact, qopt uncertain.QuantizeOptions, labels *labelstore.Overlay) (uncertain.Relation, error) {
	rel := make(uncertain.Relation, 0, len(a.Retained))
	for _, f := range a.Retained {
		if s, ok := a.Exact[f]; ok {
			lvl := phase1.ClampLevel(uncertain.LevelOf(s, qopt.Step), qopt)
			rel = append(rel, uncertain.XTuple{ID: int(f), Dist: uncertain.Certain(lvl)})
			continue
		}
		if s, ok := labels.Get(int(f)); ok {
			lvl := phase1.ClampLevel(uncertain.LevelOf(s, qopt.Step), qopt)
			rel = append(rel, uncertain.XTuple{ID: int(f), Dist: uncertain.Certain(lvl)})
			continue
		}
		mix, ok := a.Mixtures[f]
		if !ok {
			return nil, fmt.Errorf("everest: index missing mixture for frame %d", f)
		}
		d, err := uncertain.Quantize(mix, qopt)
		if err != nil {
			d = uncertain.Certain(phase1.ClampLevel(uncertain.LevelOf(mix.Mean(), qopt.Step), qopt))
		}
		rel = append(rel, uncertain.XTuple{ID: int(f), Dist: d})
	}
	return rel, nil
}

// referenceWindowRelation is the replaced WindowRelation, likewise.
func referenceWindowRelation(a *Artifact, w WindowSpec, qopt uncertain.QuantizeOptions, labels *labelstore.Overlay) (uncertain.Relation, error) {
	diff := diffdet.Result{RepOf: a.RepOf}
	maxLevel := 0
	if qopt.MaxLevel > 0 && qopt.MaxLevel < int(^uint(0)>>1) {
		maxLevel = qopt.MaxLevel
	}
	return windows.BuildRelation(func(rep int) windows.FrameScore {
		if s, ok := a.Exact[int32(rep)]; ok {
			return windows.FrameScore{IsExact: true, Exact: s}
		}
		if s, ok := labels.Get(rep); ok {
			return windows.FrameScore{IsExact: true, Exact: s}
		}
		return windows.FrameScore{Mix: a.Mixtures[int32(rep)]}
	}, diff, windows.Options{Size: w.Size, Stride: w.Stride, Step: qopt.Step, MaxLevel: maxLevel, Procs: 1})
}

// randomArtifact makes a structurally valid artifact of n frames
// without ingesting a video: 10-frame clips whose middle frame is
// retained and represents the discarded ones, a quarter of the retained
// frames labelled in Phase 1, the rest scored by a 1–3 component
// mixture (some far below zero, so the clamp and collapse paths of
// Quantize run too).
func randomArtifact(r *xrand.RNG, n int) *Artifact {
	a := &Artifact{
		Dataset: "random", UDFName: "count", TotalFrames: n,
		RepOf:    make([]int32, n),
		Exact:    map[int32]float64{},
		Mixtures: map[int32]uncertain.Mixture{},
	}
	for lo := 0; lo < n; lo += 10 {
		hi := min(lo+10, n)
		mid := int32(lo + (hi-lo)/2)
		for f := lo; f < hi; f++ {
			if int32(f) == mid || r.Intn(3) == 0 {
				a.RepOf[f] = int32(f)
				a.Retained = append(a.Retained, int32(f))
			} else {
				a.RepOf[f] = mid
			}
		}
	}
	for _, f := range a.Retained {
		if r.Intn(4) == 0 {
			a.Exact[f] = float64(r.Intn(12))
			continue
		}
		mix := make(uncertain.Mixture, 1+r.Intn(3))
		for j := range mix {
			mix[j] = uncertain.GaussianComponent{
				Weight: 1 / float64(len(mix)),
				Mean:   r.Float64()*14 - 4,
				Sigma:  0.05 + r.Float64()*2,
			}
		}
		a.Mixtures[f] = mix
	}
	return a
}

// overlaysFor returns the label overlays the property tests run every
// builder under: none, an empty one, labels on unlabelled retained
// frames, labels that also hit Phase 1 frames (which must lose to the
// Phase 1 label) and non-retained frames (which no tuple reads), and
// the same with part of the labels fresh instead of in the base.
func overlaysFor(r *xrand.RNG, a *Artifact) map[string]*labelstore.Overlay {
	var some, all labelstore.Map
	fresh := labelstore.NewOverlay(labelstore.Map{})
	for f := 0; f < a.TotalFrames; f++ {
		_, phase1Label := a.Exact[int32(f)]
		retained := a.RepOf[f] == int32(f)
		score := float64(r.Intn(15)) + 0.25
		if retained && !phase1Label && r.Intn(5) == 0 {
			some = some.Set(f, score)
		}
		if r.Intn(4) == 0 {
			all = all.Set(f, score)
			if r.Intn(2) == 0 {
				fresh.Set(f, score+1)
			}
		}
	}
	mixed := labelstore.NewOverlay(some)
	for f, s := range fresh.Fresh() {
		mixed.Set(f, s)
	}
	return map[string]*labelstore.Overlay{
		"nil":            nil,
		"empty":          labelstore.NewOverlay(labelstore.Map{}),
		"unlabelled":     labelstore.NewOverlay(some),
		"every-kind":     labelstore.NewOverlay(all),
		"base-and-fresh": mixed,
	}
}

var testWindows = []WindowSpec{{Size: 30, Stride: 30}, {Size: 40, Stride: 15}}

// assertMatchesReference checks both memoized builders against the
// reference builders, bit for bit (reflect.DeepEqual descends into
// Dist's CDF and log-CDF tables), under every overlay.
func assertMatchesReference(t *testing.T, when string, a *Artifact, qopt uncertain.QuantizeOptions, overlays map[string]*labelstore.Overlay) {
	t.Helper()
	for name, labels := range overlays {
		want, werr := referenceFrameRelation(a, qopt, labels)
		got, gerr := a.FrameRelation(qopt, labels)
		if werr != nil || gerr != nil {
			t.Fatalf("%s, overlay %s: frame relation errors: reference %v, memoized %v", when, name, werr, gerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, overlay %s: memoized frame relation differs from the reference", when, name)
		}
		for _, w := range testWindows {
			want, werr := referenceWindowRelation(a, w, qopt, labels)
			got, gerr := a.WindowRelation(w, qopt, labels, 1, nil)
			if werr != nil || gerr != nil {
				t.Fatalf("%s, overlay %s, window %+v: errors: reference %v, memoized %v", when, name, w, werr, gerr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, overlay %s, window %+v: memoized window relation differs from the reference", when, name, w)
			}
		}
	}
}

// TestMemoizedRelationsMatchReference: on the ingested fixture and on
// random artifacts, the memoized builders return exactly what deriving
// D0 from scratch returns — on the first (cold) build, on later (warm)
// ones, after 1–3 Appends extend the memo (quantizing only the tail),
// and across a change of quantization and back.
func TestMemoizedRelationsMatchReference(t *testing.T) {
	fix, _, udf := fixture(t)
	r := xrand.New(20).Split("relation-test")
	assertMatchesReference(t, "fixture", fix, udf.Quantize(), overlaysFor(r, fix))

	counting := uncertain.DefaultCountingOptions()
	capped := uncertain.QuantizeOptions{Step: 0.5, MinLevel: 0, MaxLevel: 12, TruncSigma: 2}
	for trial := 0; trial < 6; trial++ {
		a := randomArtifact(r, 60+r.Intn(200))
		assertMatchesReference(t, "cold", a, counting, overlaysFor(r, a))
		assertMatchesReference(t, "warm", a, counting, overlaysFor(r, a))
		for appends := 1 + trial%3; appends > 0; appends-- {
			before, _ := a.FrameRelation(counting, nil)
			if err := a.Append(randomArtifact(r, 35+r.Intn(120)), a.TotalFrames); err != nil {
				t.Fatal(err)
			}
			assertMatchesReference(t, "after append", a, counting, overlaysFor(r, a))
			// Extended, not rebuilt: the prefix still holds the very
			// distributions quantized before the append.
			after, _ := a.FrameRelation(counting, nil)
			for i := range before {
				if &before[i].Dist.P[0] != &after[i].Dist.P[0] {
					t.Fatalf("append re-quantized tuple %d of the already-built prefix", i)
				}
			}
		}
		assertMatchesReference(t, "other quantization", a, capped, overlaysFor(r, a))
		assertMatchesReference(t, "first quantization again", a, counting, overlaysFor(r, a))
	}
}

// TestMemoizedRelationsConcurrent builds relations on one cold artifact
// from 8 goroutines at once (the memo's first build races with its
// first readers; run under -race): every goroutine gets the reference
// relation.
func TestMemoizedRelationsConcurrent(t *testing.T) {
	r := xrand.New(21).Split("relation-test")
	a := randomArtifact(r, 900)
	qopt := uncertain.DefaultCountingOptions()
	overlays := overlaysFor(r, a)
	wantFrame, err := referenceFrameRelation(a, qopt, overlays["every-kind"])
	if err != nil {
		t.Fatal(err)
	}
	wantWindow, err := referenceWindowRelation(a, testWindows[1], qopt, overlays["every-kind"])
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if (g+i)%2 == 0 {
					got, err := a.FrameRelation(qopt, overlays["every-kind"])
					if err != nil || !reflect.DeepEqual(got, wantFrame) {
						t.Errorf("goroutine %d: frame relation differs from the reference (err %v)", g, err)
					}
					continue
				}
				got, err := a.WindowRelation(testWindows[1], qopt, overlays["every-kind"], 1, nil)
				if err != nil || !reflect.DeepEqual(got, wantWindow) {
					t.Errorf("goroutine %d: window relation differs from the reference (err %v)", g, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFrameRelationIsTheCallers: the returned slice is a copy of the
// memo, so overwriting its tuples does not show in the next call.
func TestFrameRelationIsTheCallers(t *testing.T) {
	a := randomArtifact(xrand.New(22).Split("relation-test"), 200)
	qopt := uncertain.DefaultCountingOptions()
	first, err := a.FrameRelation(qopt, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := append(uncertain.Relation(nil), first...)
	for i := range first {
		first[i] = uncertain.XTuple{ID: -1, Dist: uncertain.Certain(99)}
	}
	second, err := a.FrameRelation(qopt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, want) {
		t.Fatal("mutating a returned relation changed the next one")
	}
}

// TestWindowRelationMissingMixtureIsAnError: a retained frame with
// neither a Phase 1 label nor a mixture is the same error from both
// builders — the window builder used to score it N(0, 0) in silence.
func TestWindowRelationMissingMixtureIsAnError(t *testing.T) {
	a := randomArtifact(xrand.New(23).Split("relation-test"), 120)
	var victim int32 = -1
	for _, f := range a.Retained {
		if _, ok := a.Mixtures[f]; ok {
			victim = f
			break
		}
	}
	delete(a.Mixtures, victim)
	qopt := uncertain.DefaultCountingOptions()
	_, ferr := a.FrameRelation(qopt, nil)
	_, werr := a.WindowRelation(testWindows[0], qopt, nil, 1, nil)
	want := fmt.Sprintf("missing mixture for frame %d", victim)
	if ferr == nil || !strings.Contains(ferr.Error(), want) {
		t.Fatalf("frame relation over a scoreless frame: %v, want %q", ferr, want)
	}
	if werr == nil || werr.Error() != ferr.Error() {
		t.Fatalf("window relation over a scoreless frame: %v, want the frame builder's %q", werr, ferr)
	}
	if err := a.Validate(); err == nil || err.Error() != ferr.Error() {
		t.Fatalf("Validate over a scoreless frame: %v, want %q", err, ferr)
	}
}

var relationSink uncertain.Relation

// benchArtifact is a 4,000-frame random artifact (about 1,600 retained
// frames) and an overlay labelling a quarter of them.
func benchArtifact() (*Artifact, *labelstore.Overlay) {
	r := xrand.New(24).Split("relation-bench")
	a := randomArtifact(r, 4000)
	var base labelstore.Map
	for _, f := range a.Retained {
		if r.Intn(4) == 0 {
			base = base.Set(int(f), float64(r.Intn(12)))
		}
	}
	return a, labelstore.NewOverlay(base)
}

// BenchmarkFrameRelation: cold is the first build on an artifact
// (quantizes every mixture: what every query used to pay), warm a
// query's share once the base is memoized (a copy plus the overlay).
func BenchmarkFrameRelation(b *testing.B) {
	a, labels := benchArtifact()
	qopt := uncertain.DefaultCountingOptions()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := a.Clone()
			b.StartTimer()
			relationSink, _ = c.FrameRelation(qopt, labels)
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		relationSink, _ = a.FrameRelation(qopt, labels)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			relationSink, _ = a.FrameRelation(qopt, labels)
		}
	})
}

// BenchmarkWindowRelation is a warm 30-frame tumbling window build.
func BenchmarkWindowRelation(b *testing.B) {
	a, labels := benchArtifact()
	qopt := uncertain.DefaultCountingOptions()
	b.ReportAllocs()
	relationSink, _ = a.WindowRelation(testWindows[0], qopt, labels, 1, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relationSink, _ = a.WindowRelation(testWindows[0], qopt, labels, 1, nil)
	}
}
