package phase1

import (
	"testing"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// TestInferMixturesMatchesSerial: FillRetainedMixtures predicts every
// unlabelled retained frame, on any number of workers, exactly as the
// proxy's PredictFrame of the decoded frame — whether the detector pass
// predicted it or, under DisableDiff, the fill decodes it — leaves the
// labelled frames' entries alone and counts what it wrote.
func TestInferMixturesMatchesSerial(t *testing.T) {
	src := testSource(t, 2000)
	udf := vision.CountUDF{Class: video.ClassCar}
	for _, disable := range []bool{false, true} {
		for _, procs := range []int{1, 3} {
			opt := testOpts()
			opt.DisableDiff, opt.Procs = disable, procs
			st, err := Run(src, udf, opt, simclock.NewClock())
			if err != nil {
				t.Fatal(err)
			}
			mixes := make([]uncertain.Mixture, len(st.Diff.Retained))
			n := st.FillRetainedMixtures(mixes)
			want := 0
			for _, id := range st.Diff.Retained {
				if _, exact := st.Labeled[id]; !exact {
					want++
				}
			}
			if n != want {
				t.Fatalf("DisableDiff=%v Procs=%d: filled %d mixtures, want %d", disable, procs, n, want)
			}
			for k, id := range st.Diff.Retained {
				if _, exact := st.Labeled[id]; exact {
					if mixes[k] != nil {
						t.Fatalf("DisableDiff=%v Procs=%d: labelled frame %d got a mixture", disable, procs, id)
					}
					continue
				}
				if k%97 != 0 {
					continue
				}
				f := st.Src.Render(id)
				want := st.Proxy.PredictFrame(f)
				f.Release()
				if len(want) != len(mixes[k]) {
					t.Fatalf("frame %d: mixture size %d vs %d", id, len(mixes[k]), len(want))
				}
				for c := range want {
					if want[c] != mixes[k][c] {
						t.Fatalf("frame %d component %d: %+v vs %+v", id, c, mixes[k][c], want[c])
					}
				}
			}
		}
	}
}
