package windows

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/everest-project/everest/internal/uncertain"
)

// sameBits reports whether two distributions are bit for bit the same:
// support, probabilities, CDF and log-CDF tables.
func sameBits(a, b uncertain.Dist) bool {
	if a.Min != b.Min || len(a.P) != len(b.P) {
		return false
	}
	for l := a.Min; l <= a.Max(); l++ {
		for _, f := range []func(uncertain.Dist, int) float64{uncertain.Dist.Pr, uncertain.Dist.CDF, uncertain.Dist.LogCDF} {
			if math.Float64bits(f(a, l)) != math.Float64bits(f(b, l)) {
				return false
			}
		}
	}
	return true
}

// equalMeans scores every representative with mean 5 and a sigma of
// 1, 2 or 3 by its 10-frame window, so on segDiff(n, 5) all windows of
// 10 share one mean and three variances take turns.
func equalMeans(rep int) FrameScore {
	return mixScore(testMixture(5, 1+float64((rep/10)%3)))
}

// TestMemoHitIsBitIdentical: a memo stores one distribution per
// distinct window Gaussian, keyed by mean and variance both (the
// windows here share one mean), each bit-identical to a fresh
// QuantizeNormal of its moments; building or re-aggregating through it
// gives BuildRelation's relation with no memo, and a second pass reads
// the stored tables instead of quantizing again.
func TestMemoHitIsBitIdentical(t *testing.T) {
	diff := segDiff(200, 5)
	opt := Options{Size: 10, Stride: 10, Step: 0.5, MaxLevel: 40}
	want, err := BuildRelation(equalMeans, diff, opt)
	if err != nil {
		t.Fatal(err)
	}
	memo := &Memo{}
	withMemo := opt
	withMemo.Memo = memo
	got, err := BuildRelation(equalMeans, diff, withMemo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("BuildRelation through a memo differs from BuildRelation without one")
	}
	if len(memo.m) != 3 {
		t.Fatalf("the memo holds %d window Gaussians, want 3 (one mean, three variances)", len(memo.m))
	}
	qopt := uncertain.QuantizeOptions{Step: opt.Step, MaxLevel: opt.MaxLevel}
	for key, d := range memo.m {
		mean, variance := math.Float64frombits(key[0]), math.Float64frombits(key[1])
		fresh, err := uncertain.QuantizeNormal(mean, math.Sqrt(variance), qopt)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(d, fresh) {
			t.Fatalf("the memo's N(%v, %v) differs from a fresh QuantizeNormal", mean, variance)
		}
	}
	all := make([]int, len(got))
	for i := range all {
		all[i] = i
	}
	again := make(uncertain.Relation, len(got))
	for i := range again {
		again[i].ID = i
	}
	if err := Reaggregate(again, all, equalMeans, diff, withMemo); err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if !sameBits(again[i].Dist, want[i].Dist) {
			t.Fatalf("window %d re-aggregated through the memo differs from BuildRelation's", i)
		}
		if &again[i].Dist.P[0] != &got[i].Dist.P[0] {
			t.Fatalf("window %d was quantized again, not read from the memo", i)
		}
	}
}

// TestMemoNeverStoresAFailure: a window whose variance is NaN fails on
// every pass through a memo, with BuildRelation's error, and leaves no
// entry behind; the windows that quantize are stored.
func TestMemoNeverStoresAFailure(t *testing.T) {
	bad := func(rep int) FrameScore {
		if rep == 140 {
			return mixScore(uncertain.Mixture{{Weight: 1, Mean: 1, Sigma: math.NaN()}})
		}
		return mixedScore(rep)
	}
	diff := segDiff(300, 7)
	opt := Options{Size: 30, Stride: 30, Step: 0.5}
	_, wantErr := BuildRelation(bad, diff, opt)
	if wantErr == nil || !strings.HasPrefix(wantErr.Error(), "windows: window 4: ") {
		t.Fatalf("BuildRelation error %v, want window 4's", wantErr)
	}
	memo := &Memo{}
	opt.Memo = memo
	all := make([]int, NumSlidingWindows(diff.NumFrames(), opt.Size, opt.Stride))
	for i := range all {
		all[i] = i
	}
	for round := range 2 {
		rel := make(uncertain.Relation, len(all))
		if err := Reaggregate(rel, all, bad, diff, opt); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("round %d: Reaggregate error %v, want %v", round, err, wantErr)
		}
		for key := range memo.m {
			if math.IsNaN(math.Float64frombits(key[1])) {
				t.Fatalf("round %d: the memo stored a NaN-variance window", round)
			}
		}
		if len(memo.m) == 0 {
			t.Fatalf("round %d: the memo stored none of the windows that quantize", round)
		}
	}
}

// TestMemoCap: a memo never holds more than memoCap entries; a store
// into a full one clears it first, and what it returns after is still
// the fresh quantization.
func TestMemoCap(t *testing.T) {
	var memo Memo
	qopt := uncertain.QuantizeOptions{Step: 1, MaxLevel: math.MaxInt}
	for i := range memoCap + 1 {
		if _, err := memo.quantize(float64(i)/64, 1, qopt); err != nil {
			t.Fatal(err)
		}
		if len(memo.m) > memoCap {
			t.Fatalf("after %d stores the memo holds %d entries, bound %d", i+1, len(memo.m), memoCap)
		}
	}
	if len(memo.m) != 1 {
		t.Fatalf("the store past the bound left %d entries, want 1", len(memo.m))
	}
	got, err := memo.quantize(0, 1, qopt)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := uncertain.QuantizeNormal(0, 1, qopt)
	if !sameBits(got, want) {
		t.Fatal("a quantization after the memo was cleared differs from a fresh one")
	}
}
