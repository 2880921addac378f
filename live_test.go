package everest

import (
	"reflect"
	"testing"

	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// TestLiveStreamIsItsPrimaryFollower: the stream's own query is a
// follower like any other. The OnDelta callback, Deltas, Answer and
// Stats().Deltas report one and the same sequence, and a second
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
	defer ls.Close()
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
	if n := ls.Stats().Deltas; n != len(got) {
		t.Fatalf("Stats().Deltas = %d, %d deltas delivered", n, len(got))
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
