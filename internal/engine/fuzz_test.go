package engine

import (
	"math"
	"reflect"
	"testing"

	"github.com/everest-project/everest/internal/core"
)

// FuzzPlanNormalize fuzzes the plan compiler's contract: whatever shape
// the raw config takes, NewPlan either rejects it or returns a plan
// that is normalized (idempotently), self-consistently validated, and
// carries a sound bound kind — overlapping windows can never slip
// through with the independent bound, a retry budget can never go
// negative, and a NaN or infinite threshold, deadline or backoff is
// always rejected.
func FuzzPlanNormalize(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(5, 0.9, 0, 0, false, int64(0), 0.0, 0.0)
	f.Add(10, 0.99, 30, 0, false, int64(3), 500.0, 100.0)
	f.Add(3, 0.5, 300, 30, true, int64(-1), -1.0, -1.0)
	f.Add(0, 0.0, -1, -5, false, int64(-1<<40), 0.0, 0.0)
	f.Add(1, 1.0, 1, 1, true, int64(1<<40), 0.0, 0.0)
	for _, v := range []float64{nan, inf, -inf} {
		f.Add(5, v, 0, 0, false, int64(1), 0.0, 0.0)
		f.Add(5, 0.9, 0, 0, false, int64(1), v, 0.0)
		f.Add(5, 0.9, 0, 0, false, int64(1), 0.0, v)
	}
	f.Fuzz(func(t *testing.T, k int, thres float64, window, stride int, union bool, retries int64, deadline, backoff float64) {
		p, err := NewPlan(Plan{
			K:               k,
			Threshold:       thres,
			Window:          WindowSpec{Size: window, Stride: stride},
			ForceUnionBound: union,
			Retries:         int(retries),
			DeadlineMS:      deadline,
			RetryBackoffMS:  backoff,
		})
		for _, v := range []float64{thres, deadline, backoff} {
			if (math.IsNaN(v) || math.IsInf(v, 0)) && err == nil {
				t.Fatalf("threshold %v, deadline %v, backoff %v accepted", thres, deadline, backoff)
			}
		}
		if err != nil {
			return
		}
		if again := p.Normalize(); !reflect.DeepEqual(again, p) {
			t.Fatalf("Normalize not idempotent: %+v vs %+v", again, p)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("NewPlan returned an invalid plan: %v", err)
		}
		if p.Window.Enabled() && p.Window.Stride <= 0 {
			t.Fatalf("windowed plan kept an unset stride: %+v", p.Window)
		}
		if !p.Window.Enabled() && p.Window.Stride != 0 {
			t.Fatalf("frame plan kept a stride: %+v", p.Window)
		}
		if want := max(int(retries), 0); p.Retries != want {
			t.Fatalf("Retries = %d after normalization, want %d", p.Retries, want)
		}
		if p.Window.Overlapping() && p.Bound() != core.BoundUnion {
			t.Fatalf("overlapping windows with bound %v", p.Bound())
		}
		if union && p.Bound() != core.BoundUnion {
			t.Fatal("ForceUnionBound dropped")
		}
		if !Compatible(p, p) {
			t.Fatal("a plan must be compatible with itself")
		}
	})
}
