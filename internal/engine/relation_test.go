package engine

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/everest-project/everest/internal/core"
	"github.com/everest-project/everest/internal/diffdet"
	"github.com/everest-project/everest/internal/labelstore"
	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
	"github.com/everest-project/everest/internal/windows"
	"github.com/everest-project/everest/internal/xrand"
)

// referenceFrameRelation is the builder the memoized FrameRelation
// replaced, kept as the tests' reference: it derives every tuple from
// the artifact's labels and mixtures on every call.
func referenceFrameRelation(a *Artifact, qopt uncertain.QuantizeOptions, labels *labelstore.Overlay) (uncertain.Relation, error) {
	rel := make(uncertain.Relation, 0, len(a.Retained))
	for i, f := range a.Retained {
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
		mix := a.Mixtures[i]
		if len(mix) == 0 {
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
			return windows.FrameScore{IsExact: true, Mean: s}
		}
		if s, ok := labels.Get(rep); ok {
			return windows.FrameScore{IsExact: true, Mean: s}
		}
		if i, ok := slices.BinarySearch(a.Retained, int32(rep)); ok {
			mix := a.Mixtures[i]
			return windows.FrameScore{Mean: mix.Mean(), Variance: mix.Variance()}
		}
		return windows.FrameScore{}
	}, diff, windows.Options{Size: w.Size, Stride: w.Stride, Step: qopt.Step, MaxLevel: maxLevel})
}

// randomArtifact makes a structurally valid artifact of n frames
// without ingesting a video: 10-frame clips whose middle frame is
// retained and represents the discarded ones, a quarter of the retained
// frames labelled in Phase 1, the rest scored by a 1–3 component
// mixture (some far below zero, so the clamp and collapse paths of
// Quantize run too).
func randomArtifact(r *xrand.RNG, n int) *Artifact { return randomArtifactClips(r, n, 10) }

// randomArtifactClips is randomArtifact with clips of the given length.
func randomArtifactClips(r *xrand.RNG, n, clip int) *Artifact {
	a := &Artifact{
		Dataset: "random", UDFName: "count", TotalFrames: n,
		RepOf: make([]int32, n),
		Exact: map[int32]float64{},
	}
	for lo := 0; lo < n; lo += clip {
		hi := min(lo+clip, n)
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
	a.Mixtures = make([]uncertain.Mixture, len(a.Retained))
	for i, f := range a.Retained {
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
		a.Mixtures[i] = mix
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

// tableUDF is an oracle for artifacts with no video behind them: frame
// f scores (7f mod 13) / 2, under the given quantization.
type tableUDF struct{ qopt uncertain.QuantizeOptions }

func (tableUDF) Name() string { return "count" }
func (tableUDF) Score(_ video.Source, ids []int) []float64 {
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = float64(7*id%13) / 2
	}
	return out
}
func (u tableUDF) Quantize() uncertain.QuantizeOptions        { return u.qopt }
func (tableUDF) OracleCostMS(cost simclock.CostModel) float64 { return cost.OracleMS }

// referenceExecute is Execute the way it ran before it read a memoized
// D0: the reference builders materialize the plan's relation — frames
// or windows — under the overlay, and a run with no override over it
// prepared answers. The oracle is Execute's own frame oracle without
// retries, mux or lanes: overlay hits are free, misses are scored,
// recorded and charged; a window plan confirms through windows.Oracle
// on top of it.
func referenceExecute(p Plan, a *Artifact, src video.Source, udf vision.UDF, labels *labelstore.Overlay) (*Outcome, error) {
	qopt := udf.Quantize()
	clock := simclock.NewClock()
	scoreFrames := func(ids []int) ([]float64, error) {
		scores := make([]float64, len(ids))
		var missAt, missIDs []int
		for i, id := range ids {
			if s, ok := labels.Get(id); ok {
				scores[i] = s
				continue
			}
			missAt = append(missAt, i)
			missIDs = append(missIDs, id)
		}
		if len(missIDs) > 0 {
			fresh := udf.Score(src, missIDs)
			for j, i := range missAt {
				scores[i] = fresh[j]
				labels.Set(missIDs[j], fresh[j])
			}
			clock.Charge(simclock.PhaseConfirm, float64(len(missIDs))*udf.OracleCostMS(p.Cost))
		}
		return scores, nil
	}
	var rel uncertain.Relation
	var oracle core.Oracle
	var err error
	if p.Window.Enabled() {
		rel, err = referenceWindowRelation(a, p.Window, qopt, labels)
		oracle = &windows.Oracle{ScoreFrames: scoreFrames, Size: p.Window.Size, Stride: p.Window.Stride,
			SampleFrac: p.Window.SampleFrac, Step: qopt.Step, Seed: p.Seed}
	} else {
		rel, err = referenceFrameRelation(a, qopt, labels)
		oracle = core.OracleFunc(func(ids []int) ([]int, error) {
			scores, _ := scoreFrames(ids)
			levels := make([]int, len(ids))
			for i, s := range scores {
				levels[i] = uncertain.LevelOf(s, qopt.Step)
			}
			return levels, nil
		})
	}
	if err != nil {
		return nil, err
	}
	if p.K > len(rel) {
		return nil, fmt.Errorf("everest: K=%d exceeds relation size %d", p.K, len(rel))
	}
	cost := p.Cost
	cost.OracleMS = 0
	base, err := core.Prepare(rel, p.Bound())
	if err != nil {
		return nil, err
	}
	eng, err := base.Start(core.Config{
		K: p.K, Threshold: p.Threshold, BatchSize: p.BatchSize,
		DisableEarlyStop: p.DisableEarlyStop, ResortOnce: p.ResortOnce, Bound: p.Bound(),
		BudgetMS: p.DeadlineMS, DegradedOK: p.DegradedOK,
	}, nil, nil, oracle, clock, cost)
	if err != nil {
		return nil, err
	}
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	scores := make([]float64, len(res.Levels))
	for i, lvl := range res.Levels {
		scores[i] = uncertain.LevelValue(lvl, qopt.Step)
	}
	return &Outcome{IDs: res.IDs, Levels: res.Levels, Scores: scores, Confidence: res.Confidence, Bound: res.Bound,
		Stats: res.Stats, Tuples: len(rel), Clock: clock, Degraded: res.Degraded}, nil
}

// outcomeBits is everything an Outcome reports — each float as its bits
// — plus the labels the run recorded into its overlay.
func outcomeBits(o *Outcome, err error, labels *labelstore.Overlay) string {
	if err != nil {
		return "error " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ids %v levels %v conf %x bound %v stats %+v tuples %d", o.IDs, o.Levels,
		math.Float64bits(o.Confidence), o.Bound, o.Stats, o.Tuples)
	for _, s := range o.Scores {
		fmt.Fprintf(&b, " %x", math.Float64bits(s))
	}
	if d := o.Degraded; d != nil {
		fmt.Fprintf(&b, " degraded %s %v %x", d.Reason, d.Unconfirmed, math.Float64bits(d.SpentMS))
	}
	for _, ps := range o.Clock.Breakdown() {
		fmt.Fprintf(&b, " %s %x", ps.Phase, math.Float64bits(ps.MS))
	}
	fresh := labels.Fresh()
	ids := slices.Sorted(maps.Keys(fresh))
	for _, id := range ids {
		fmt.Fprintf(&b, " fresh %d %x", id, math.Float64bits(fresh[id]))
	}
	return b.String()
}

// executePlans are the frame plans Execute is checked under: K of one
// and of four, the union bound (a second prepared base on the same
// artifact), and a deadline answered degraded.
func executePlans(t *testing.T) map[string]Plan {
	t.Helper()
	shapes := map[string]func(p *Plan){
		"K=1":               func(p *Plan) { p.K = 1 },
		"K=4":               func(p *Plan) {},
		"union bound":       func(p *Plan) { p.ForceUnionBound = true },
		"degraded deadline": func(p *Plan) { p.DeadlineMS, p.DegradedOK = 40, true },
	}
	plans := make(map[string]Plan, len(shapes))
	for name, shape := range shapes {
		p := testPlan(4)
		p.BatchSize = 3
		shape(&p)
		plan, err := NewPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		plans[name] = plan
	}
	return plans
}

// assertExecuteMatchesReference checks Execute over the artifact's
// prepared D0 against referenceExecute, bit for bit, under every
// overlay of overlaysFor and every plan of executePlans. Each side runs
// on its own copy of the overlay (both draw it from seed), since a run
// records its confirmations into it.
func assertExecuteMatchesReference(t *testing.T, when string, a *Artifact, src video.Source, udf vision.UDF, seed uint64) {
	t.Helper()
	for pname, p := range executePlans(t) {
		gotOverlays := overlaysFor(xrand.New(seed).Split("overlays"), a)
		wantOverlays := overlaysFor(xrand.New(seed).Split("overlays"), a)
		for name, labels := range gotOverlays {
			got, gerr := Execute(p, Binding{Src: src, UDF: udf, Artifact: a, Labels: labels})
			want, werr := referenceExecute(p, a, src, udf, wantOverlays[name])
			if g, w := outcomeBits(got, gerr, labels), outcomeBits(want, werr, wantOverlays[name]); g != w {
				t.Fatalf("%s, plan %s, overlay %s: Execute differs from the reference:\n got %s\nwant %s", when, pname, name, g, w)
			}
		}
	}
}

// TestMemoizedRelationsMatchReference: on the ingested fixture and on
// random artifacts, the memoized builders return exactly what deriving
// D0 from scratch returns, and Execute over the prepared D0 answers what
// a run with no override over that derived relation answers — on the
// first (cold) build, on later (warm) ones, after 1–3 Appends extend the
// memo (quantizing only the tail), with frame and window queries
// interleaved on the one memo, and across a change of quantization and
// back.
func TestMemoizedRelationsMatchReference(t *testing.T) {
	fix, src, udf := fixture(t)
	r := xrand.New(20).Split("relation-test")
	assertMatchesReference(t, "fixture", fix, udf.Quantize(), overlaysFor(r, fix))
	assertExecuteMatchesReference(t, "fixture", fix, src, udf, r.Uint64())

	counting := uncertain.DefaultCountingOptions()
	capped := uncertain.QuantizeOptions{Step: 0.5, MinLevel: 0, MaxLevel: 12, TruncSigma: 2}
	for trial := 0; trial < 6; trial++ {
		a := randomArtifact(r, 60+r.Intn(200))
		assertExecuteMatchesReference(t, "cold", a, nil, tableUDF{counting}, r.Uint64())
		assertMatchesReference(t, "cold", a, counting, overlaysFor(r, a))
		assertWindowExecuteMatchesReference(t, "cold", a, nil, tableUDF{counting}, r.Uint64())
		assertMatchesReference(t, "warm", a, counting, overlaysFor(r, a))
		assertExecuteMatchesReference(t, "warm", a, nil, tableUDF{counting}, r.Uint64())
		for appends := 1 + trial%3; appends > 0; appends-- {
			before, _ := a.FrameRelation(counting, nil)
			if err := a.Append(randomArtifact(r, 35+r.Intn(120)), a.TotalFrames); err != nil {
				t.Fatal(err)
			}
			if appends%2 == 1 {
				assertWindowExecuteMatchesReference(t, "after append", a, nil, tableUDF{counting}, r.Uint64())
			}
			assertExecuteMatchesReference(t, "after append", a, nil, tableUDF{counting}, r.Uint64())
			assertMatchesReference(t, "after append", a, counting, overlaysFor(r, a))
			// Extended, not rebuilt: the prefix still holds the very
			// distributions quantized before the append. (Every point
			// mass shares one table, so a certain tuple's table says
			// nothing about when it was built.)
			after, _ := a.FrameRelation(counting, nil)
			compared := 0
			for i := range before {
				if len(before[i].Dist.P) > 1 {
					compared++
					if &before[i].Dist.P[0] != &after[i].Dist.P[0] {
						t.Fatalf("append re-quantized tuple %d of the already-built prefix", i)
					}
				}
			}
			if compared == 0 {
				t.Fatal("no uncertain tuple before the append; the check is vacuous")
			}
		}
		assertMatchesReference(t, "other quantization", a, capped, overlaysFor(r, a))
		assertExecuteMatchesReference(t, "other quantization", a, nil, tableUDF{capped}, r.Uint64())
		assertMatchesReference(t, "first quantization again", a, counting, overlaysFor(r, a))
		assertExecuteMatchesReference(t, "first quantization again", a, nil, tableUDF{counting}, r.Uint64())
	}
}

// TestMemoizedRelationsConcurrent builds relations and executes frame
// plans on one cold artifact from 8 goroutines at once (the memo's
// first build, the base's preparation and its joint CDF's first build
// race with their first readers; run under -race), then again right
// after each of two Appends (the first goroutine to lock the artifact
// extends the memo, the score table and the prepared base in place while
// the others wait): every goroutine gets the reference relation, and
// every execution — uncached or over its own copy of a warm overlay —
// the reference outcome.
func TestMemoizedRelationsConcurrent(t *testing.T) {
	r := xrand.New(21).Split("relation-test")
	a := randomArtifact(r, 900)
	qopt := uncertain.DefaultCountingOptions()
	udf := tableUDF{qopt}
	plan := executePlans(t)["K=4"]
	wave := func(when string) {
		overlays := overlaysFor(r, a)
		wantFrame, err := referenceFrameRelation(a, qopt, overlays["every-kind"])
		if err != nil {
			t.Fatal(err)
		}
		wantWindow, err := referenceWindowRelation(a, testWindows[1], qopt, overlays["every-kind"])
		if err != nil {
			t.Fatal(err)
		}
		overlaySeed := r.Uint64()
		warm := func() *labelstore.Overlay { return overlaysFor(xrand.New(overlaySeed), a)["base-and-fresh"] }
		wantCold, err := referenceExecute(plan, a, nil, udf, nil)
		wantColdBits := outcomeBits(wantCold, err, nil)
		wantLabels := warm()
		wantWarm, err := referenceExecute(plan, a, nil, udf, wantLabels)
		wantWarmBits := outcomeBits(wantWarm, err, wantLabels)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var labels *labelstore.Overlay
				want := wantColdBits
				if g%2 == 1 {
					labels, want = warm(), wantWarmBits
				}
				out, err := Execute(plan, Binding{UDF: udf, Artifact: a, Labels: labels})
				if got := outcomeBits(out, err, labels); got != want {
					t.Errorf("%s, goroutine %d: Execute differs from the reference:\n got %s\nwant %s", when, g, got, want)
				}
				for i := 0; i < 4; i++ {
					if (g+i)%2 == 0 {
						got, err := a.FrameRelation(qopt, overlays["every-kind"])
						if err != nil || !reflect.DeepEqual(got, wantFrame) {
							t.Errorf("%s, goroutine %d: frame relation differs from the reference (err %v)", when, g, err)
						}
						continue
					}
					got, err := a.WindowRelation(testWindows[1], qopt, overlays["every-kind"], 1, nil)
					if err != nil || !reflect.DeepEqual(got, wantWindow) {
						t.Errorf("%s, goroutine %d: window relation differs from the reference (err %v)", when, g, err)
					}
				}
			}(g)
		}
		wg.Wait()
	}
	wave("cold")
	for i := 1; i <= 2; i++ {
		if err := a.Append(randomArtifact(r, 150+r.Intn(300)), a.TotalFrames); err != nil {
			t.Fatal(err)
		}
		wave(fmt.Sprintf("after append %d", i))
	}
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

// TestLabelsOutsideD0ChangeNothing: a label on a frame outside D0 — one
// the difference detector discarded, or one at or past the artifact's
// end — changes neither the frame relation nor any frame plan's
// outcome: an overlay holding such labels beside labels on retained
// frames answers what the retained labels alone answer.
func TestLabelsOutsideD0ChangeNothing(t *testing.T) {
	r := xrand.New(25).Split("relation-test")
	qopt := uncertain.DefaultCountingOptions()
	udf := tableUDF{qopt}
	for trial := 0; trial < 4; trial++ {
		a := randomArtifact(r, 80+r.Intn(200))
		var inside, both labelstore.Map
		for f := 0; f < a.TotalFrames; f++ {
			score := float64(r.Intn(15)) + 0.25
			switch {
			case a.RepOf[f] != int32(f):
				both = both.Set(f, score)
			case r.Intn(4) == 0:
				inside, both = inside.Set(f, score), both.Set(f, score)
			}
		}
		for _, f := range []int{a.TotalFrames, a.TotalFrames + 1, a.TotalFrames + 37, 1 << 20} {
			both = both.Set(f, 9.25)
		}
		want, werr := a.FrameRelation(qopt, labelstore.NewOverlay(inside))
		got, gerr := a.FrameRelation(qopt, labelstore.NewOverlay(both))
		if werr != nil || gerr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: labels outside D0 changed the frame relation (errors %v, %v)", trial, gerr, werr)
		}
		for pname, p := range executePlans(t) {
			wantLabels, gotLabels := labelstore.NewOverlay(inside), labelstore.NewOverlay(both)
			want, werr := Execute(p, Binding{UDF: udf, Artifact: a, Labels: wantLabels})
			got, gerr := Execute(p, Binding{UDF: udf, Artifact: a, Labels: gotLabels})
			if g, w := outcomeBits(got, gerr, gotLabels), outcomeBits(want, werr, wantLabels); g != w {
				t.Fatalf("trial %d, plan %s: labels outside D0 changed Execute:\n got %s\nwant %s", trial, pname, g, w)
			}
		}
	}
}

// TestPositionFrom: the forward search finds what a bisection of the
// whole relation finds, from every starting position, for IDs in it,
// between its IDs, and beyond both ends.
func TestPositionFrom(t *testing.T) {
	r := xrand.New(26)
	for trial := 0; trial < 50; trial++ {
		var rel uncertain.Relation
		n := r.Intn(40)
		for id := r.Intn(3); len(rel) < n; id += 1 + r.Intn(3) {
			rel = append(rel, uncertain.XTuple{ID: id})
		}
		for id := -2; id <= 2+3*len(rel)+2; id++ {
			want := sort.Search(len(rel), func(i int) bool { return rel[i].ID >= id })
			for from := 0; from <= len(rel); from++ {
				pos, ok := positionFrom(rel, from, id)
				if pos != want || ok != (want < len(rel) && rel[want].ID == id) {
					t.Fatalf("trial %d: positionFrom(%d, %d) = %d, %v; want %d", trial, from, id, pos, ok, want)
				}
			}
		}
	}
}

// TestWindowRelationMissingMixtureIsAnError: a retained frame with
// neither a Phase 1 label nor a mixture is the same error from both
// builders — the window builder used to score it N(0, 0) in silence.
func TestWindowRelationMissingMixtureIsAnError(t *testing.T) {
	a := randomArtifact(xrand.New(23).Split("relation-test"), 120)
	var victim int32 = -1
	for i, f := range a.Retained {
		if len(a.Mixtures[i]) > 0 {
			victim = f
			a.Mixtures[i] = nil
			break
		}
	}
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

// TestFrameRelationMissingMixtureFailsExecute: the frame relation reads
// the artifact's labels and mixtures itself, and still refuses a
// retained frame with neither — through FrameRelation and through a
// frame query's Execute alike.
func TestFrameRelationMissingMixtureFailsExecute(t *testing.T) {
	qopt := uncertain.DefaultCountingOptions()
	plan, err := NewPlan(testPlan(3))
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*Artifact, int32) {
		a := randomArtifact(xrand.New(27).Split("relation-test"), 150)
		for i, f := range a.Retained {
			if len(a.Mixtures[i]) > 0 {
				a.Mixtures[i] = nil
				return a, f
			}
		}
		t.Fatal("no retained frame has a mixture")
		return nil, 0
	}
	a, victim := build()
	want := missingScore(victim).Error()
	if _, err := a.FrameRelation(qopt, nil); err == nil || err.Error() != want {
		t.Fatalf("FrameRelation over a scoreless frame: %v, want %q", err, want)
	}
	a, _ = build()
	if _, err := Execute(plan, Binding{UDF: tableUDF{qopt}, Artifact: a}); err == nil || err.Error() != want {
		t.Fatalf("Execute over a scoreless frame: %v, want %q", err, want)
	}
}

// TestFrameQueryBuildsNoFrameTable: a frame query reads Phase 1's labels
// and mixtures where they are; the per-frame score table (and the span)
// exists for window shapes, and the first window query builds it.
func TestFrameQueryBuildsNoFrameTable(t *testing.T) {
	a := randomArtifact(xrand.New(28).Split("relation-test"), 200)
	qopt := uncertain.DefaultCountingOptions()
	labels := overlaysFor(xrand.New(29), a)["base-and-fresh"]
	plan, err := NewPlan(testPlan(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.FrameRelation(qopt, labels); err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(plan, Binding{UDF: tableUDF{qopt}, Artifact: a, Labels: labels}); err != nil {
		t.Fatal(err)
	}
	if len(a.scores) != 0 || a.span != 0 {
		t.Fatalf("frame queries built a %d-frame score table (span %d)", len(a.scores), a.span)
	}
	if _, err := a.WindowRelation(testWindows[0], qopt, labels, 1, nil); err != nil {
		t.Fatal(err)
	}
	if len(a.scores) != a.TotalFrames {
		t.Fatalf("a window query built a score table of %d frames, want %d", len(a.scores), a.TotalFrames)
	}
}

var relationSink uncertain.Relation

// benchArtifact is a 4,000-frame random artifact (about 1,600 retained
// frames) and a cache snapshot labelling a quarter of them.
func benchArtifact() (*Artifact, labelstore.Map) {
	r := xrand.New(24).Split("relation-bench")
	a := randomArtifact(r, 4000)
	var base labelstore.Map
	for _, f := range a.Retained {
		if r.Intn(4) == 0 {
			base = base.Set(int(f), float64(r.Intn(12)))
		}
	}
	return a, base
}

// BenchmarkExecute is a warm query over the bench artifact, uncached
// or under a fresh overlay over the cache snapshot. Every case starts
// its run from a prepared D0: a frame query reads it as it is
// (uncached) or under the overlay's point-mass overrides (walked once;
// the joint CDF summed over the view from the K-th certain level up); a
// 30-frame window query reads the shape's prepared relation as it is
// (window_uncached) or under the windows the overlay touches
// (window_overlay): those re-aggregated in a copy of the relation and
// passed as the run's overrides, each window Gaussian read from the
// shape's quantization memo. window_overlay_cold empties that memo
// before each query, with the timer stopped, so every touched window
// is quantized: the miss path.
func BenchmarkExecute(b *testing.B) {
	a, snapshot := benchArtifact()
	udf := tableUDF{uncertain.DefaultCountingOptions()}
	frame, err := NewPlan(testPlan(10))
	if err != nil {
		b.Fatal(err)
	}
	p := testPlan(10)
	p.Window = testWindows[0]
	window, err := NewPlan(p)
	if err != nil {
		b.Fatal(err)
	}
	// The first query of each kind memoizes its D0 and prepares it, and a
	// window query under the overlay fills the shape's quantization memo;
	// every case but window_overlay_cold times the warm path.
	for _, plan := range []Plan{frame, window} {
		if _, err := Execute(plan, Binding{UDF: udf, Artifact: a}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := Execute(window, Binding{UDF: udf, Artifact: a, Labels: labelstore.NewOverlay(snapshot)}); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		plan          Plan
		overlay, cold bool
	}{
		{"uncached", frame, false, false},
		{"overlay", frame, true, false},
		{"window_uncached", window, false, false},
		{"window_overlay", window, true, false},
		{"window_overlay_cold", window, true, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.cold {
					b.StopTimer()
					a.mu.Lock()
					for _, e := range a.memos {
						e.quantized = windows.Memo{}
					}
					a.mu.Unlock()
					b.StartTimer()
				}
				var labels *labelstore.Overlay
				if c.overlay {
					labels = labelstore.NewOverlay(snapshot)
				}
				if _, err := Execute(c.plan, Binding{UDF: udf, Artifact: a, Labels: labels}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrameRelation: cold is the first build on an artifact
// (quantizes every mixture: what every query used to pay), warm a
// query's share once the base is memoized (a copy plus the overlay).
func BenchmarkFrameRelation(b *testing.B) {
	a, snapshot := benchArtifact()
	labels := labelstore.NewOverlay(snapshot)
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
	a, snapshot := benchArtifact()
	labels := labelstore.NewOverlay(snapshot)
	qopt := uncertain.DefaultCountingOptions()
	b.ReportAllocs()
	relationSink, _ = a.WindowRelation(testWindows[0], qopt, labels, 1, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relationSink, _ = a.WindowRelation(testWindows[0], qopt, labels, 1, nil)
	}
}
