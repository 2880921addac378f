package cmdn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/everest-project/everest/internal/golden"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
)

// bits renders a float as its IEEE-754 bit pattern and its shortest
// decimal, so a transcript diff shows both that and how far a value moved.
func bits(v float64) string { return fmt.Sprintf("%#016x %v", math.Float64bits(v), v) }

// mixtureLines renders one mixture, a component per line.
func mixtureLines(mix uncertain.Mixture) string {
	var b strings.Builder
	for _, c := range mix {
		fmt.Fprintf(&b, "  w %s  mu %s  sigma %s\n", bits(c.Weight), bits(c.Mean), bits(c.Sigma))
	}
	return b.String()
}

// TestTrainGolden pins the proxy trainer's numerics to the bit: every
// grid point's holdout NLL, the chosen proxy's calibration, its mixtures
// for a few frames, a drift check, and one warm Refresh with its own
// mixtures and charge. Any change to the dense or MDN kernels, Adam, the
// batch order, the feature extractor or the selection shows up here as a
// diff of exactly the entries it moved.
func TestTrainGolden(t *testing.T) {
	src := trafficSource(t, 1200)
	w, h := src.Resolution()
	cfg := Config{
		Grid:   []Hyper{{G: 5, H: 20}, {G: 8, H: 30}, {G: 12, H: 20}},
		Epochs: 30, Seed: 17, FrameW: w, FrameH: h, Procs: 2,
	}
	cost := simclock.Default()
	train := makeSamples(src, offsetEvery(600, 5, 0))
	holdout := makeSamples(src, offsetEvery(600, 23, 2))
	frames := []int{7, 311, 598, 905, 1187}

	var tr golden.Transcript
	clock := simclock.NewClock()
	proxy, reports, err := Train(train, holdout, cfg, clock, cost)
	if err != nil {
		t.Fatal(err)
	}
	in := fmt.Sprintf("Train %d+%d samples, grid %v, %d epochs, seed %d", len(train), len(holdout), cfg.Grid, cfg.Epochs, cfg.Seed)
	var out strings.Builder
	for _, r := range reports {
		fmt.Fprintf(&out, "G=%d H=%d holdout NLL %s\n", r.Hyper.G, r.Hyper.H, bits(r.HoldoutNLL))
	}
	fmt.Fprintf(&out, "chosen G=%d H=%d\ncalibration %s\ncharge %s\n",
		proxy.Hyper().G, proxy.Hyper().H, bits(proxy.Calibration()), bits(clock.PhaseMS(simclock.PhaseTrainCMDN)))
	tr.Add("train", in, out.String(), nil)
	for _, f := range frames {
		tr.Add(fmt.Sprintf("predict/%d", f), fmt.Sprintf("PredictFrame(%d)", f), mixtureLines(proxy.PredictFrame(src.Render(f))), nil)
	}

	train2 := makeSamples(src, offsetEvery(1200, 5, 600))
	hold2 := makeSamples(src, offsetEvery(1200, 23, 602))
	tr.Add("drift", fmt.Sprintf("DriftNLL(%d samples)", len(hold2)), bits(proxy.DriftNLL(hold2))+"\n", nil)
	warmClock := simclock.NewClock()
	warm, err := Refresh(proxy, train2, hold2, append(holdout[:len(holdout):len(holdout)], hold2...), RefreshConfig{Seed: 19, Procs: 2}, cfg, warmClock, cost)
	if err != nil {
		t.Fatal(err)
	}
	tr.Add("refresh", fmt.Sprintf("Refresh %d+%d samples, seed 19", len(train2), len(hold2)),
		fmt.Sprintf("holdout NLL %s\ncalibration %s\ncharge %s\n",
			bits(warm.HoldoutNLL()), bits(warm.Calibration()), bits(warmClock.PhaseMS(simclock.PhaseTrainCMDN))), nil)
	for _, f := range frames {
		tr.Add(fmt.Sprintf("refresh/predict/%d", f), fmt.Sprintf("PredictFrame(%d)", f), mixtureLines(warm.PredictFrame(src.Render(f))), nil)
	}
	tr.Check(t, "testdata/golden_train.txt")
}
