package phase1

import (
	"testing"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

func TestInferMixturesMatchesSerial(t *testing.T) {
	src := testSource(t, 2000)
	udf := vision.CountUDF{Class: video.ClassCar}
	st, err := Run(src, udf, testOpts(), simclock.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{1, 77, 402, 1333, 1999}
	got := st.InferMixtures(ids)
	for k, id := range ids {
		f := st.Src.Render(id)
		want := st.Proxy.PredictFrame(f)
		f.Release()
		if len(want) != len(got[k]) {
			t.Fatalf("frame %d: mixture size %d vs %d", id, len(got[k]), len(want))
		}
		for c := range want {
			if want[c] != got[k][c] {
				t.Fatalf("frame %d component %d: %+v vs %+v", id, c, got[k][c], want[c])
			}
		}
	}
}
