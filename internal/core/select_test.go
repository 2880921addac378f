package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/xrand"
)

func TestPsiMonotoneInThresholds(t *testing.T) {
	// Eq. 8's soundness rests on ψ being non-increasing as S_k and S_p
	// grow: a stale ψ from an earlier iteration over-estimates, never
	// under-estimates.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		d := randomTestDist(r)
		for sk := -2; sk < 12; sk++ {
			for sp := sk; sp < 13; sp++ {
				cur := psiOf(d, sk, sp, BoundIndependent)
				// Any later thresholds sk' >= sk, sp' >= sp must give ψ' <= ψ.
				later := psiOf(d, sk+1, sp+2, BoundIndependent)
				if later > cur+1e-12 && !math.IsInf(cur, 1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randomTestDist(r *xrand.RNG) uncertain.Dist {
	n := 2 + r.Intn(5)
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = 0.05 + r.Float64()
	}
	return mustDist(r.Intn(6), probs)
}

func TestPsiEdgeCases(t *testing.T) {
	d := mustDist(3, []float64{0.5, 0.5}) // support {3,4}
	// Fully below S_k: no chance of entering Top-K → ψ = 0.
	if got := psiOf(d, 4, 5, BoundIndependent); got != 0 {
		t.Fatalf("ψ for hopeless frame = %v, want 0", got)
	}
	// Entirely above S_p: F(S_p) = 0 → ψ = +Inf (must be examined).
	if got := psiOf(d, 0, 1, BoundIndependent); !math.IsInf(got, 1) {
		t.Fatalf("ψ for certain-contender = %v, want +Inf", got)
	}
	// K == 1 (noPenultimate): denominator is 1.
	if got := psiOf(d, 2, noPenultimate, BoundIndependent); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ψ at K=1 = %v, want 1", got)
	}
}

func TestUpperBoundDominatesExpectedConfidence(t *testing.T) {
	// U(X_f) = p̂ + γ·ψ(f) >= E[X_f] for every uncertain frame (Eq. 7).
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 6 + r.Intn(8)
		k := 1 + r.Intn(3)
		rel, oracle := randomRelation(r, n, k+2, 4, 6)
		e, err := newEngine(rel, Config{K: k, Threshold: 0.99, BatchSize: 8}, oracle, nil, simclock.Default())
		if err != nil {
			return false
		}
		sk, sp := e.thresholds()
		phat := e.prob.Prob(sk)
		var gamma float64
		if sp == noPenultimate {
			gamma = 1
		} else {
			gamma = e.prob.Prob(sp)
		}
		for _, d := range liveDists(e) {
			ev := e.sel.expectedConfidence(d, sk, sp)
			bound := phat + gamma*psiOf(d, sk, sp, BoundIndependent)
			if ev > bound+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectBatchPrefersHighImpactFrames(t *testing.T) {
	// A frame certain to beat the current threshold must be selected
	// before one that cannot.
	rel := uncertain.Relation{
		{ID: 0, Dist: uncertain.Certain(5)},
		{ID: 1, Dist: uncertain.Certain(4)},
		{ID: 2, Dist: mustDist(8, []float64{0.5, 0.5})}, // sure contender
		{ID: 3, Dist: mustDist(0, []float64{0.9, 0.1})}, // hopeless
		{ID: 4, Dist: mustDist(3, []float64{0.5, 0.5})}, // marginal
	}
	oracle := &trueWorldOracle{levels: map[int]int{2: 9, 3: 0, 4: 3}}
	e, err := newEngine(rel, Config{K: 2, Threshold: 0.99, BatchSize: 1}, oracle, nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	batch := e.sel.selectBatch()
	if len(batch) != 1 || batch[0] != 2 {
		t.Fatalf("first batch = %v, want [2] (the sure contender)", batch)
	}
}

func TestAtExcludingMatchesDirectProduct(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(6)
		dists := make([]uncertain.Dist, n)
		j := uncertain.NewJointCDF(0, 12)
		for i := range dists {
			dists[i] = randomTestDist(r)
			j.Add(dists[i])
		}
		for t := -1; t <= 13; t++ {
			for skip := 0; skip < n; skip++ {
				want := 1.0
				for i, d := range dists {
					if i == skip {
						continue
					}
					want *= d.CDF(t)
				}
				got := j.AtExcluding(dists[skip], t)
				if math.Abs(got-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestOracleIntermittentFailure(t *testing.T) {
	// An oracle failing mid-run surfaces the error; nothing panics and the
	// stats reflect only completed work.
	r := xrand.New(77)
	rel, good := randomRelation(r, 60, 10, 4, 8)
	calls := 0
	flaky := OracleFunc(func(ids []int) ([]int, error) {
		calls++
		if calls == 3 {
			return nil, errFlaky
		}
		return good.CleanBatch(ids)
	})
	e, err := newEngine(rel, Config{K: 4, Threshold: 0.9999, BatchSize: 2}, flaky, nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run()
	if err == nil {
		t.Skip("query finished before the third oracle call")
	}
	if got := err.Error(); got == "" {
		t.Fatal("empty error")
	}
	if e.stats.Cleaned != 4 { // two successful batches of 2
		t.Fatalf("cleaned %d before failure, want 4", e.stats.Cleaned)
	}
}

var errFlaky = &flakyError{}

type flakyError struct{}

func (*flakyError) Error() string { return "transient inference failure" }

func TestOracleWrongLengthRejected(t *testing.T) {
	r := xrand.New(79)
	rel, _ := randomRelation(r, 20, 5, 4, 6)
	bad := OracleFunc(func(ids []int) ([]int, error) { return []int{1}, nil })
	e, err := newEngine(rel, Config{K: 3, Threshold: 0.99, BatchSize: 4}, bad, nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("length-mismatched oracle response must be an error")
	}
}
