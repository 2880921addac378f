package main

import (
	"math"
	"strings"
	"testing"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// TestFollowRejectsNaNDrift: `everest -follow -drift NaN` fails as an
// opening-live-stream error before any footage is ingested, instead of
// running with the drift fallback silently off.
func TestFollowRejectsNaNDrift(t *testing.T) {
	spec, err := video.DatasetByName("Archie")
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.Build(1200)
	if err != nil {
		t.Fatal(err)
	}
	cfg := everest.Config{K: 3, Threshold: 0.9, Seed: 1}
	err = runFollow(src, vision.CountUDF{Class: src.TargetClass()}, cfg, 600, 300, 0, true, math.NaN())
	if err == nil || !strings.HasPrefix(err.Error(), "everest: opening live stream: ") {
		t.Fatalf("runFollow with a NaN drift tolerance: %v, want an opening-live-stream error", err)
	}
}
