package everest

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// TestLiveStreamIsItsPrimaryFollower: the stream's own query is a
// follower like any other. The OnDelta callback, Deltas and Answer
// report one and the same sequence, one delta per evaluation group
// (Stats().Evaluations), and a second
// follower registered with the same config sees the same answers, each
// meeting the threshold.
func TestLiveStreamIsItsPrimaryFollower(t *testing.T) {
	src := testSource(t, 3000, 11)
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := smallCfg(3)
	var seen []LiveDelta
	ls, err := OpenLive(src, udf, cfg, LiveConfig{
		SegmentFrames: 1000,
		OnDelta:       func(d LiveDelta) { seen = append(seen, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if ls.Answer() != nil || len(ls.Deltas()) != 0 {
		t.Fatal("answer before any footage arrived")
	}
	twin, err := ls.Follow(cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for range 6 {
		if err := ls.Append(500); err != nil {
			t.Fatal(err)
		}
	}
	if err := ls.Seal(); err != nil {
		t.Fatal(err)
	}

	got := ls.Deltas()
	if len(got) == 0 {
		t.Fatal("no deltas after three segment closes")
	}
	if !reflect.DeepEqual(got, seen) {
		t.Fatalf("Deltas() and the OnDelta callback disagree:\n%+v\nvs\n%+v", got, seen)
	}
	if n := ls.Stats().Evaluations; n != len(got) {
		t.Fatalf("Stats().Evaluations = %d, %d deltas delivered", n, len(got))
	}
	if a := ls.Answer(); a == nil || !reflect.DeepEqual(*a, got[len(got)-1]) {
		t.Fatalf("Answer() %+v is not the last delta %+v", a, got[len(got)-1])
	}
	tw := twin.Deltas()
	if len(tw) != len(got) {
		t.Fatalf("twin follower got %d deltas, primary %d", len(tw), len(got))
	}
	// The twin runs over labels the primary already paid for, so its
	// charges and the last bits of its confidence may differ; the answer
	// itself may not.
	for i, d := range got {
		if d.Seq != tw[i].Seq || d.Frontier != tw[i].Frontier ||
			!reflect.DeepEqual(d.IDs, tw[i].IDs) || !reflect.DeepEqual(d.Scores, tw[i].Scores) {
			t.Fatalf("delta %d: primary %+v, twin %+v", i, d, tw[i])
		}
		if d.Confidence < cfg.Threshold || tw[i].Confidence < cfg.Threshold {
			t.Fatalf("delta %d: confidence %v / %v below threshold %v", i, d.Confidence, tw[i].Confidence, cfg.Threshold)
		}
	}
}

// TestLiveDeltasAllocateNothing: reading a stream's or a follower's
// deltas hands out the follower's own history, not a copy of it, and
// Answer is the last of those deltas, not a snapshot.
func TestLiveDeltasAllocateNothing(t *testing.T) {
	src := testSource(t, 1000, 11)
	cfg := smallCfg(3)
	ls, err := OpenLive(src, vision.CountUDF{Class: video.ClassCar}, cfg, LiveConfig{SegmentFrames: 500})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := ls.Follow(cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := ls.Append(500); err != nil {
			t.Fatal(err)
		}
	}
	var n int
	for name, deltas := range map[string]func() []LiveDelta{"stream": ls.Deltas, "follower": fol.Deltas} {
		if a := testing.AllocsPerRun(100, func() { n += len(deltas()) }); a != 0 {
			t.Errorf("%s: Deltas() allocates %v times per call, want 0", name, a)
		}
	}
	for name, f := range map[string]*LiveFollower{"stream": ls.primary, "follower": fol} {
		ds := f.Deltas()
		if len(ds) != 2 {
			t.Fatalf("%s: %d deltas after two closes, want 2", name, len(ds))
		}
		if f.Answer() != &ds[len(ds)-1] {
			t.Errorf("%s: Answer() %p is not the last delta %p", name, f.Answer(), &ds[len(ds)-1])
		}
	}
	if ls.Answer() != ls.primary.Answer() {
		t.Error("the stream's Answer is not its primary follower's")
	}
}

// TestOpenLiveRejectsNaNDrift: a NaN drift tolerance fails every
// comparison, so it would silently disable the drift fallback; OpenLive
// refuses it. +Inf (never fall back) and a negative value (always fall
// back) keep their meanings.
func TestOpenLiveRejectsNaNDrift(t *testing.T) {
	src := testSource(t, 1000, 11)
	udf := vision.CountUDF{Class: video.ClassCar}
	_, err := OpenLive(src, udf, smallCfg(3), LiveConfig{SegmentFrames: 500, Warm: true, DriftNLL: math.NaN()})
	if err == nil || !strings.Contains(err.Error(), "opening live stream") {
		t.Fatalf("OpenLive with a NaN drift tolerance: %v, want an opening-live-stream error", err)
	}
	for _, drift := range []float64{math.Inf(1), -1} {
		if _, err := OpenLive(src, udf, smallCfg(3), LiveConfig{SegmentFrames: 500, Warm: true, DriftNLL: drift}); err != nil {
			t.Fatalf("OpenLive with drift tolerance %v: %v", drift, err)
		}
	}
}
