package cmdn

import (
	"math"
	"testing"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/xrand"
)

// referenceFeatures is the one-sum-per-pass feature extractor the fused
// AppendFeatures replaced, kept verbatim as the reference: the frame
// mean, then each 8×8 cell, each 4-row band and each 4-column band in
// its own pass.
func referenceFeatures(f video.Frame) []float64 {
	const grid = 8
	var feats []float64
	cellW, cellH := f.W/grid, f.H/grid
	mean := 0.0
	for _, v := range f.Pix {
		mean += v
	}
	mean /= float64(len(f.Pix))
	for gy := 0; gy < grid; gy++ {
		for gx := 0; gx < grid; gx++ {
			s := 0.0
			x0 := gx * cellW
			for y := gy * cellH; y < (gy+1)*cellH; y++ {
				for _, v := range f.Pix[y*f.W+x0 : y*f.W+x0+cellW] {
					s += v
				}
			}
			feats = append(feats, s/float64(cellW*cellH)-mean)
		}
	}
	for y0 := 0; y0 < f.H; y0 += 4 {
		s := 0.0
		for y := y0; y < y0+4 && y < f.H; y++ {
			for _, v := range f.Pix[y*f.W : (y+1)*f.W] {
				s += v
			}
		}
		feats = append(feats, s/float64(4*f.W)-mean)
	}
	for x0 := 0; x0 < f.W; x0 += 4 {
		s := 0.0
		for x := x0; x < x0+4 && x < f.W; x++ {
			for y := 0; y < f.H; y++ {
				s += f.Pix[y*f.W+x]
			}
		}
		feats = append(feats, s/float64(4*f.H)-mean)
	}
	return append(feats, mean)
}

// TestAppendFeaturesMatchesReference: on random frames of sizes that
// are and are not multiples of 4, 8 and 16, the fused extractor emits
// exactly the reference's features (compared by Float64bits), of
// exactly FeatureSize of them, after whatever dst already held — and
// never reads the spare capacity of dst.
func TestAppendFeaturesMatchesReference(t *testing.T) {
	r := xrand.New(31).Split("features")
	sizes := [][2]int{{64, 64}, {66, 66}, {60, 62}, {8, 8}, {9, 13}, {17, 31}, {33, 8}, {100, 75}, {48, 20}}
	for _, wh := range sizes {
		w, h := wh[0], wh[1]
		for trial := 0; trial < 3; trial++ {
			f := video.Frame{W: w, H: h, Pix: make([]float64, w*h)}
			for i := range f.Pix {
				f.Pix[i] = r.Float64()
			}
			want := referenceFeatures(f)
			if len(want) != FeatureSize(w, h) {
				t.Fatalf("%dx%d: reference emits %d features, FeatureSize says %d", w, h, len(want), FeatureSize(w, h))
			}
			// A prefix to keep, then stale values in the spare capacity.
			dst := make([]float64, 3, 3+len(want)+5)
			for i := range dst[:cap(dst)] {
				dst[:cap(dst)][i] = math.NaN()
			}
			dst[0], dst[1], dst[2] = 1, 2, 3
			got := AppendFeatures(dst, f)
			if len(got) != 3+len(want) || got[0] != 1 || got[1] != 2 || got[2] != 3 {
				t.Fatalf("%dx%d: AppendFeatures did not append to dst (len %d)", w, h, len(got))
			}
			for i, v := range got[3:] {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("%dx%d trial %d: feature %d = %v, reference %v", w, h, trial, i, v, want[i])
				}
			}
		}
	}
}

// TestPooledArchNeedsAnEightByEightGrid: below 8 pixels on a side every
// cell of the 8×8 grid is empty and its feature 0/0, so training refuses
// the resolution instead of fitting NaNs.
func TestPooledArchNeedsAnEightByEightGrid(t *testing.T) {
	s := []Sample{{X: make([]float64, FeatureSize(6, 6)), Y: 1}, {X: make([]float64, FeatureSize(6, 6)), Y: 2}}
	_, _, err := Train(s, s, Config{Grid: []Hyper{{G: 2, H: 4}}, Epochs: 1, FrameW: 6, FrameH: 6}, nil, simclock.Default())
	if err == nil {
		t.Fatal("ArchPooled at 6x6 trained")
	}
}
