package phase1_test

import (
	"math"
	"testing"

	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// The D0 builders live on engine.Artifact; these tests run Phase 1 here
// and check the relations the engine builds from its State. They sit in
// the external test package because engine imports phase1.

func testSource(t *testing.T, frames int) *video.Synthetic {
	t.Helper()
	s, err := video.NewSynthetic(video.Config{
		Name: "p1", Kind: video.KindTraffic, Class: video.ClassCar,
		Frames: frames, FPS: 30, Seed: 6, MeanPopulation: 3, BurstRate: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testOpts() phase1.Options {
	return phase1.Options{
		SampleFrac: 0.05,
		Proxy:      cmdn.Config{Grid: []cmdn.Hyper{{G: 5, H: 30}}, Epochs: 20},
		Cost:       simclock.Default(),
		Seed:       2,
	}
}

// ingest runs Phase 1 and captures its State as the engine's Artifact.
func ingest(t *testing.T, src video.Source, udf vision.UDF, opt phase1.Options, clock *simclock.Clock) (*phase1.State, *engine.Artifact) {
	t.Helper()
	st, err := phase1.Run(src, udf, opt, clock)
	if err != nil {
		t.Fatal(err)
	}
	return st, engine.Capture(st, udf, opt.Cost, clock)
}

func TestFrameRelationInvariants(t *testing.T) {
	src := testSource(t, 6000)
	udf := vision.CountUDF{Class: video.ClassCar}
	st, art := ingest(t, src, udf, testOpts(), simclock.NewClock())
	rel, err := art.FrameRelation(udf.Quantize(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != st.Info.Retained {
		t.Fatalf("relation size %d, retained %d", len(rel), st.Info.Retained)
	}
	certain := 0
	for _, x := range rel {
		if err := x.Dist.Validate(); err != nil {
			t.Fatalf("tuple %d: %v", x.ID, err)
		}
		if x.Dist.Min < 0 {
			t.Fatalf("tuple %d has negative support %d", x.ID, x.Dist.Min)
		}
		if x.Dist.IsCertain() {
			certain++
			// Certain tuples are exactly the labelled retained frames.
			if s, ok := st.Labeled[x.ID]; ok {
				if x.Dist.Min != int(s) {
					t.Fatalf("labelled frame %d entered at level %d, truth %v", x.ID, x.Dist.Min, s)
				}
			}
		}
	}
	if certain == 0 {
		t.Fatal("no labelled frames entered the relation as certain")
	}
}

func TestWindowRelationInvariants(t *testing.T) {
	src := testSource(t, 6000)
	udf := vision.CountUDF{Class: video.ClassCar}
	_, art := ingest(t, src, udf, testOpts(), simclock.NewClock())
	rel, err := art.WindowRelation(engine.WindowSpec{Size: 30, Stride: 30}, udf.Quantize(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != 200 {
		t.Fatalf("window relation size %d, want 200", len(rel))
	}
	for _, x := range rel {
		if err := x.Dist.Validate(); err != nil {
			t.Fatalf("window %d: %v", x.ID, err)
		}
	}
	// Window means should track true window means loosely.
	var mae float64
	for _, x := range rel {
		trueMean := 0.0
		for f := x.ID * 30; f < (x.ID+1)*30; f++ {
			trueMean += float64(src.TrueCountFast(f))
		}
		trueMean /= 30
		mae += math.Abs(x.Dist.Mean() - trueMean)
	}
	if mae/float64(len(rel)) > 2.5 {
		t.Fatalf("window relation MAE %.2f too large", mae/float64(len(rel)))
	}
}

func relationsEqual(t *testing.T, tag string, a, b uncertain.Relation) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: relation sizes %d vs %d", tag, len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("%s: tuple %d ID %d vs %d", tag, i, a[i].ID, b[i].ID)
		}
		da, db := a[i].Dist, b[i].Dist
		if da.Min != db.Min || len(da.P) != len(db.P) {
			t.Fatalf("%s: tuple %d support differs", tag, i)
		}
		for j := range da.P {
			if da.P[j] != db.P[j] {
				t.Fatalf("%s: tuple %d prob[%d] %v vs %v", tag, i, j, da.P[j], db.P[j])
			}
		}
	}
}

// TestPhase1ProcsBitIdentical runs the whole Phase 1 pipeline — sampling,
// feature extraction, grid training, D0 population (frame and window) —
// at several worker counts and requires byte-identical outputs and
// simulated charges.
func TestPhase1ProcsBitIdentical(t *testing.T) {
	src := testSource(t, 4000)
	udf := vision.CountUDF{Class: video.ClassCar}
	qopt := udf.Quantize()

	type outcome struct {
		frameRel  uncertain.Relation
		windowRel uncertain.Relation
		nll       float64
		calib     float64
		totalMS   float64
	}
	run := func(procs int) outcome {
		opt := testOpts()
		opt.Procs = procs
		clock := simclock.NewClock()
		st, art := ingest(t, src, udf, opt, clock)
		frameRel, err := art.FrameRelation(qopt, nil)
		if err != nil {
			t.Fatal(err)
		}
		windowRel, err := art.WindowRelation(engine.WindowSpec{Size: 40, Stride: 20}, qopt, nil, procs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{
			frameRel:  frameRel,
			windowRel: windowRel,
			nll:       st.Proxy.HoldoutNLL(),
			calib:     st.Proxy.Calibration(),
			totalMS:   clock.TotalMS(),
		}
	}

	serial := run(1)
	for _, procs := range []int{2, 8} {
		par := run(procs)
		if par.nll != serial.nll {
			t.Fatalf("procs=%d: holdout NLL %v != serial %v", procs, par.nll, serial.nll)
		}
		if par.calib != serial.calib {
			t.Fatalf("procs=%d: calibration %v != serial %v", procs, par.calib, serial.calib)
		}
		if par.totalMS != serial.totalMS {
			t.Fatalf("procs=%d: simulated charge %v != serial %v", procs, par.totalMS, serial.totalMS)
		}
		relationsEqual(t, "frame", serial.frameRel, par.frameRel)
		relationsEqual(t, "window", serial.windowRel, par.windowRel)
	}
}
