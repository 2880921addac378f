package cmdn

import (
	"math"
	"strings"
	"testing"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
)

func trafficSource(t testing.TB, frames int) *video.Synthetic {
	t.Helper()
	s, err := video.NewSynthetic(video.Config{
		Name: "cmdntest", Kind: video.KindTraffic, Class: video.ClassCar,
		Frames: frames, FPS: 30, Seed: 3, MeanPopulation: 3, BurstRate: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func makeSamples(src *video.Synthetic, idxs []int) []Sample {
	out := make([]Sample, len(idxs))
	for k, i := range idxs {
		out[k] = Sample{
			Frame: i,
			X:     ExtractFeatures(src.Render(i)),
			Y:     float64(src.TrueCountFast(i)),
		}
	}
	return out
}

func offsetEvery(n, step, off int) []int {
	var out []int
	for i := off; i < n; i += step {
		out = append(out, i)
	}
	return out
}

func sampleEvery(n, step int) []int {
	var out []int
	for i := 0; i < n; i += step {
		out = append(out, i)
	}
	return out
}

func TestPaperGrid(t *testing.T) {
	grid := PaperGrid()
	if len(grid) != 12 {
		t.Fatalf("grid has %d points, want 12 (4×3, §3.5)", len(grid))
	}
	seen := map[Hyper]bool{}
	for _, h := range grid {
		if seen[h] {
			t.Fatalf("duplicate grid point %+v", h)
		}
		seen[h] = true
	}
	if !seen[(Hyper{G: 15, H: 40})] || !seen[(Hyper{G: 5, H: 20})] {
		t.Fatal("grid corners missing")
	}
}

func TestExtractFeaturesShape(t *testing.T) {
	src := trafficSource(t, 100)
	f := src.Render(50)
	feats := ExtractFeatures(f)
	w, h := src.Resolution()
	if len(feats) != FeatureSize(w, h) {
		t.Fatalf("feature length %d, want %d", len(feats), FeatureSize(w, h))
	}
	for _, v := range feats {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite feature")
		}
	}
}

func TestTrainValidation(t *testing.T) {
	if _, _, err := Train(nil, nil, Config{}, nil, simclock.Default()); err == nil {
		t.Fatal("empty training set should fail")
	}
	s := []Sample{{X: []float64{1}, Y: 1}}
	if _, _, err := Train(s, nil, Config{}, nil, simclock.Default()); err == nil {
		t.Fatal("empty holdout should fail")
	}
}

// TestTrainRejectsAnotherFeatureWidth: samples whose feature vectors are
// not FeatureSize(FrameW, FrameH) long are an error from Train, whether
// they are the training rows (64×64 features for a 32×32 model: a
// training worker used to panic on them) or only the holdout rows.
func TestTrainRejectsAnotherFeatureWidth(t *testing.T) {
	src := trafficSource(t, 300)
	train := makeSamples(src, sampleEvery(300, 9))
	holdout := makeSamples(src, offsetEvery(300, 21, 4))
	if w, h := src.Resolution(); w != 64 || h != 64 || len(train[0].X) != 97 {
		t.Fatalf("fixture is %dx%d with %d features, want 64x64 with 97", w, h, len(train[0].X))
	}
	cfg := Config{Grid: []Hyper{{G: 5, H: 20}, {G: 8, H: 30}}, Epochs: 1, Seed: 3, Procs: 2}

	small := cfg
	small.FrameW, small.FrameH = 32, 32
	_, _, err := Train(train, holdout, small, nil, simclock.Default())
	if err == nil || !strings.Contains(err.Error(), "has 97 features, the model takes 81") {
		t.Fatalf("64x64 samples for a 32x32 model: error %v", err)
	}
	// Holdout rows of the model's width leave the training rows to Fit.
	narrow := make([]Sample, len(holdout))
	for i, s := range holdout {
		narrow[i] = Sample{Frame: s.Frame, X: s.X[:81], Y: s.Y}
	}
	_, _, err = Train(train, narrow, small, nil, simclock.Default())
	if err == nil || !strings.Contains(err.Error(), "input 0 has 97 values, the model takes 81") {
		t.Fatalf("64x64 training rows for a 32x32 model: error %v", err)
	}

	wide := append([]Sample(nil), holdout...)
	wide[2] = Sample{Frame: wide[2].Frame, X: append(append([]float64(nil), wide[2].X...), wide[2].X...), Y: wide[2].Y}
	_, _, err = Train(train, wide, cfg, nil, simclock.Default())
	if err == nil || !strings.Contains(err.Error(), "holdout sample 2 has 194 features, the model takes 97") {
		t.Fatalf("a holdout row twice the width: error %v", err)
	}
}

func TestTrainedProxyBeatsPrior(t *testing.T) {
	// The selected proxy's holdout NLL must beat a data-independent
	// Gaussian prior fit to the target moments — i.e., the CMDN learned
	// something from pixels.
	src := trafficSource(t, 6000)
	train := makeSamples(src, sampleEvery(6000, 7))
	holdout := makeSamples(src, offsetEvery(6000, 13, 3))

	cfg := Config{Grid: []Hyper{{G: 5, H: 20}, {G: 8, H: 30}}, Epochs: 12, Seed: 1}
	proxy, reports, err := Train(train, holdout, cfg, nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("%d reports", len(reports))
	}
	// The prior's standardized NLL is that of N(0,1): 0.5·log(2πe) ≈ 1.419.
	prior := 0.5 * math.Log(2*math.Pi*math.E)
	if proxy.HoldoutNLL() >= prior {
		t.Fatalf("proxy holdout NLL %.3f not better than unconditional prior %.3f",
			proxy.HoldoutNLL(), prior)
	}
	// Reports are sorted ascending and the best matches the proxy.
	if reports[0].HoldoutNLL != proxy.HoldoutNLL() {
		t.Fatal("best report does not match selected proxy")
	}
}

func TestProxyPredictionsTrackScores(t *testing.T) {
	src := trafficSource(t, 6000)
	train := makeSamples(src, sampleEvery(6000, 9))
	holdout := makeSamples(src, offsetEvery(6000, 17, 4))
	cfg := Config{Grid: []Hyper{{G: 8, H: 30}}, Epochs: 15, Seed: 2}
	proxy, _, err := Train(train, holdout, cfg, nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	var xs, ys []float64
	var absErr float64
	n := 0
	for i := 100; i < 6000; i += 31 {
		mix := proxy.PredictFrame(src.Render(i))
		if err := mix.Validate(); err != nil {
			t.Fatalf("invalid mixture at %d: %v", i, err)
		}
		xs = append(xs, mix.Mean())
		truth := float64(src.TrueCountFast(i))
		ys = append(ys, truth)
		absErr += math.Abs(mix.Mean() - truth)
		n++
	}
	if r := pearson(xs, ys); r < 0.6 {
		t.Fatalf("proxy mean / truth correlation %.3f too weak", r)
	}
	t.Logf("proxy MAE %.3f, correlation %.3f", absErr/float64(n), pearson(xs, ys))
}

func TestProxyUncertaintyIsHonest(t *testing.T) {
	// Roughly calibrated intervals: the truth should fall within ±2 total
	// σ of the mixture mean for the large majority of frames.
	src := trafficSource(t, 6000)
	train := makeSamples(src, sampleEvery(6000, 9))
	holdout := makeSamples(src, offsetEvery(6000, 17, 4))
	proxy, _, err := Train(train, holdout, Config{Grid: []Hyper{{G: 8, H: 30}}, Epochs: 15, Seed: 4}, nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	within := 0
	n := 0
	for i := 50; i < 6000; i += 41 {
		mix := proxy.PredictFrame(src.Render(i))
		mu := mix.Mean()
		sd := math.Sqrt(mix.Variance())
		truth := float64(src.TrueCountFast(i))
		if math.Abs(truth-mu) <= 2*sd+1e-9 {
			within++
		}
		n++
	}
	frac := float64(within) / float64(n)
	if frac < 0.75 {
		t.Fatalf("only %.2f of truths within 2σ — proxy badly overconfident", frac)
	}
}

func TestTrainChargesClock(t *testing.T) {
	src := trafficSource(t, 800)
	train := makeSamples(src, sampleEvery(800, 11))
	holdout := makeSamples(src, offsetEvery(800, 23, 5))
	clock := simclock.NewClock()
	cost := simclock.Default()
	if _, _, err := Train(train, holdout, Config{Grid: []Hyper{{G: 5, H: 20}}, Epochs: 3, Seed: 5}, clock, cost); err != nil {
		t.Fatal(err)
	}
	want := cost.ProxyTrainSampleMS * float64(len(train)+len(holdout))
	if got := clock.PhaseMS(simclock.PhaseTrainCMDN); math.Abs(got-want) > 1e-9 {
		t.Fatalf("training charge %v, want %v", got, want)
	}
}

func TestTrainDeterministic(t *testing.T) {
	src := trafficSource(t, 1000)
	train := makeSamples(src, sampleEvery(1000, 13))
	holdout := makeSamples(src, offsetEvery(1000, 29, 6))
	cfg := Config{Grid: []Hyper{{G: 5, H: 20}}, Epochs: 4, Seed: 7}
	p1, _, err := Train(train, holdout, cfg, nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := Train(train, holdout, cfg, nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	if p1.HoldoutNLL() != p2.HoldoutNLL() {
		t.Fatalf("nondeterministic training: %v vs %v", p1.HoldoutNLL(), p2.HoldoutNLL())
	}
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, syy, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
	}
	den := math.Sqrt((sxx - sx*sx/n) * (syy - sy*sy/n))
	if den == 0 {
		return 0
	}
	return (sxy - sx*sy/n) / den
}

// TestPredictAllocatesWhatItKeeps: a pruned mixture is allocated at the
// size it keeps — the proxy predicts one for every retained frame, and
// most of a G-component head is pruned away.
func TestPredictAllocatesWhatItKeeps(t *testing.T) {
	src := trafficSource(t, 1200)
	train := makeSamples(src, sampleEvery(1200, 4))
	holdout := makeSamples(src, offsetEvery(1200, 7, 2))
	const g = 12
	proxy, _, err := Train(train, holdout, Config{Grid: []Hyper{{G: g, H: 20}}, Epochs: 5, Seed: 4}, nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	pruned := false
	for i := 0; i < 1200; i += 37 {
		mix := proxy.PredictFrame(src.Render(i))
		if cap(mix) != len(mix) {
			t.Fatalf("frame %d: mixture of %d components has capacity %d", i, len(mix), cap(mix))
		}
		if err := mix.Validate(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		pruned = pruned || len(mix) < g
	}
	if !pruned {
		t.Fatal("no prediction pruned a component; the test measures nothing")
	}
}
