package cmdn

import (
	"math"
	"strings"
	"testing"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
)

// refreshFixture trains a base proxy on the first half of a synthetic
// feed and returns samples from the second half for refreshing.
func refreshFixture(t *testing.T) (base *Proxy, train2, hold2 []Sample, cfg Config, cost simclock.CostModel) {
	t.Helper()
	src := trafficSource(t, 1200)
	w, h := src.Resolution()
	cfg = Config{Grid: []Hyper{{G: 5, H: 20}, {G: 8, H: 30}}, Epochs: 20, Seed: 9, FrameW: w, FrameH: h}
	cost = simclock.Default()

	train1 := makeSamples(src, offsetEvery(600, 7, 0))
	hold1 := makeSamples(src, offsetEvery(600, 29, 3))
	var err error
	base, _, err = Train(train1, hold1, cfg, nil, cost)
	if err != nil {
		t.Fatal(err)
	}
	train2 = makeSamples(src, offsetEvery(1200, 7, 600))
	hold2 = makeSamples(src, offsetEvery(1200, 29, 601))
	return base, train2, hold2, cfg, cost
}

// TestRefreshWarmStart: a warm refresh produces a usable proxy at a
// fraction of the full-train charge, and never mutates the original.
func TestRefreshWarmStart(t *testing.T) {
	base, train2, hold2, cfg, cost := refreshFixture(t)

	probe := train2[0].X
	before := append([]float64(nil), flattenMixture(base.Predict(probe))...)

	warmClock := simclock.NewClock()
	warm, err := Refresh(base, train2, hold2, nil, RefreshConfig{Seed: 11}, cfg, warmClock, cost)
	if err != nil {
		t.Fatal(err)
	}

	after := flattenMixture(base.Predict(probe))
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("refresh mutated the previous proxy (term %d: %v -> %v)", i, before[i], after[i])
		}
	}

	fullClock := simclock.NewClock()
	if _, _, err := Train(train2, hold2, cfg, fullClock, cost); err != nil {
		t.Fatal(err)
	}
	warmMS := warmClock.PhaseMS(simclock.PhaseTrainCMDN)
	fullMS := fullClock.PhaseMS(simclock.PhaseTrainCMDN)
	if warmMS <= 0 || warmMS >= fullMS/2 {
		t.Fatalf("warm refresh charge %v ms not a clear win over full train %v ms", warmMS, fullMS)
	}

	// The refreshed proxy should still explain the new segment: its
	// holdout NLL must stay in the neighbourhood of a full retrain's
	// (both evaluated on the same holdout samples; exact values differ,
	// catastrophic divergence must not happen).
	if math.IsNaN(warm.HoldoutNLL()) || warm.HoldoutNLL() > base.HoldoutNLL()+5 {
		t.Fatalf("warm holdout NLL %v degenerated (base %v)", warm.HoldoutNLL(), base.HoldoutNLL())
	}
	if warm.Calibration() < 1 {
		t.Fatalf("calibration factor %v below 1", warm.Calibration())
	}
}

// TestDriftNLLDetectsShift: in-distribution samples score near the
// selection-time holdout NLL; a shifted score distribution scores
// clearly worse.
func TestDriftNLLDetectsShift(t *testing.T) {
	base, _, hold2, _, _ := refreshFixture(t)

	same := base.DriftNLL(hold2)
	if math.Abs(same-base.HoldoutNLL()) > 3 {
		t.Fatalf("in-distribution drift NLL %v far from holdout NLL %v", same, base.HoldoutNLL())
	}

	shifted := make([]Sample, len(hold2))
	for i, s := range hold2 {
		shifted[i] = Sample{Frame: s.Frame, X: s.X, Y: s.Y + 40}
	}
	far := base.DriftNLL(shifted)
	if far < same+3 {
		t.Fatalf("shifted targets drift NLL %v not clearly above in-distribution %v", far, same)
	}
}

// TestRefreshRejectsAnotherFeatureWidth: a Refresh whose holdout or
// calibration rows are not the previous proxy's input width is an error,
// and so are training rows of another width.
func TestRefreshRejectsAnotherFeatureWidth(t *testing.T) {
	base, train2, hold2, cfg, cost := refreshFixture(t)
	short := func(samples []Sample) []Sample {
		out := append([]Sample(nil), samples...)
		out[1] = Sample{Frame: out[1].Frame, X: out[1].X[:81], Y: out[1].Y}
		return out
	}
	cases := []struct {
		name                  string
		train, holdout, calib []Sample
		want                  string
	}{
		{"holdout", train2, short(hold2), nil, "holdout sample 1 has 81 features, the model takes 97"},
		{"calibration", train2, hold2, short(hold2), "calibration sample 1 has 81 features, the model takes 97"},
		{"train", short(train2), hold2, nil, "input 1 has 81 values, the model takes 97"},
	}
	for _, c := range cases {
		_, err := Refresh(base, c.train, c.holdout, c.calib, RefreshConfig{Seed: 11}, cfg, nil, cost)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s rows of another width: error %v, want %q", c.name, err, c.want)
		}
	}
}

func flattenMixture(mix uncertain.Mixture) []float64 {
	out := make([]float64, 0, 3*len(mix))
	for _, c := range mix {
		out = append(out, c.Weight, c.Mean, c.Sigma)
	}
	return out
}
