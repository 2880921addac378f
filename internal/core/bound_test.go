package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/xrand"
)

func TestBoundKindString(t *testing.T) {
	if BoundIndependent.String() != "independent" || BoundUnion.String() != "union" {
		t.Fatalf("unexpected names: %v, %v", BoundIndependent, BoundUnion)
	}
	if BoundKind(9).String() != "BoundKind(9)" {
		t.Fatalf("unexpected fallback: %v", BoundKind(9))
	}
}

func TestUnknownBoundKindRejected(t *testing.T) {
	rel := uncertain.Relation{{ID: 0, Dist: uncertain.Certain(1)}}
	_, err := newEngine(rel, Config{K: 1, Threshold: 0.9, BatchSize: 8, Bound: BoundKind(42)},
		OracleFunc(func(ids []int) ([]int, error) { return nil, nil }), nil, simclock.Default())
	if err == nil {
		t.Fatal("unknown bound kind must be rejected")
	}
}

// TestUnionConfidenceNeverExceedsIndependent: on independent relations the
// Bonferroni bound is a lower bound of the exact product, at every point
// of the run. We compare the initial confidences of twin engines.
func TestUnionConfidenceNeverExceedsIndependent(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 6 + r.Intn(10)
		k := 1 + r.Intn(3)
		rel, _ := randomRelation(r, n, k+2, 4, 6)
		mk := func(b BoundKind) *Engine {
			e, err := newEngine(rel, Config{K: k, Threshold: 0.9, BatchSize: 8, Bound: b},
				OracleFunc(func(ids []int) ([]int, error) { return nil, nil }), nil, simclock.Default())
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		exact := mk(BoundIndependent).Confidence()
		union := mk(BoundUnion).Confidence()
		return union <= exact+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestUnionEngineMeetsGuarantee: a full Phase 2 run under the union bound
// terminates with confidence ≥ thres and the certain-result condition
// intact, and its reported confidence lower-bounds the exact product over
// its own final state (the Weierstrass inequality Π(1−x_i) ≥ 1−Σx_i).
//
// Note the two bounds' cleaning bills are NOT point-wise ordered: the
// engines take different cleaning trajectories (E[X_f] is computed under
// different measures), so on tiny relations the union engine can get
// lucky and finish with fewer cleanings. The cost ordering is an
// empirical claim measured by ablation A7, not a per-instance theorem.
func TestUnionEngineMeetsGuarantee(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 10 + r.Intn(30)
		k := 1 + r.Intn(4)
		rel, oracle := randomRelation(r, n, k+3, 4, 8)
		e, err := newEngine(rel, Config{K: k, Threshold: 0.9, BatchSize: 2, Bound: BoundUnion},
			oracle, nil, simclock.Default())
		if err != nil {
			t.Fatal(err)
		}
		union, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if union.Confidence < 0.9 && len(liveDists(e)) > 0 {
			return false // stopped early without meeting thres
		}
		if union.Bound != BoundUnion || len(union.IDs) != k {
			return false
		}
		// Weierstrass check on the final state: 1 − Σ tails ≤ Π CDFs.
		sk := union.Levels[len(union.Levels)-1]
		exact := 1.0
		for _, d := range liveDists(e) {
			exact *= d.CDF(sk)
		}
		return union.Confidence <= exact+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestUnionPsiMonotoneInThresholds mirrors the independent-mode test:
// stale ψ must over-estimate (Eq. 8 soundness) under the union bound too.
func TestUnionPsiMonotoneInThresholds(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		d := randomTestDist(r)
		for sk := -2; sk < 12; sk++ {
			for sp := sk; sp < 13; sp++ {
				cur := psiOf(d, sk, sp, BoundUnion)
				later := psiOf(d, sk+1, sp+2, BoundUnion)
				if later > cur+1e-12 {
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

// TestUnionUpperBoundDominatesExpectedConfidence: base + γ·ψ ≥ E[X_f]
// under the union bound (the derivation in psiOf's comment).
func TestUnionUpperBoundDominatesExpectedConfidence(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 6 + r.Intn(8)
		k := 1 + r.Intn(3)
		rel, oracle := randomRelation(r, n, k+2, 4, 6)
		e, err := newEngine(rel, Config{K: k, Threshold: 0.99, BatchSize: 8, Bound: BoundUnion}, oracle, nil, simclock.Default())
		if err != nil {
			return false
		}
		sk, sp := e.thresholds()
		var base float64
		if sp == noPenultimate {
			base = 1
		} else {
			base = e.prob.Prob(sp)
		}
		for _, d := range liveDists(e) {
			ev := e.sel.expectedConfidence(d, sk, sp)
			bound := base + psiOf(d, sk, sp, BoundUnion)
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

// TestUnionResultHonestAgainstBruteForce: on tiny independent relations,
// the union engine's reported confidence must lower-bound the true
// possible-world probability of its answer being Top-K.
func TestUnionResultHonestAgainstBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 4 + r.Intn(4)
		rel, oracle := randomRelation(r, n, 2, 3, 4)
		e, err := newEngine(rel, Config{K: 2, Threshold: 0.8, BatchSize: 1, Bound: BoundUnion},
			oracle, nil, simclock.Default())
		if err != nil {
			return false
		}
		res, err := e.Run()
		if err != nil {
			return false
		}
		// Reconstruct the post-run relation: cleaned tuples are certain at
		// their oracle level.
		post := make(uncertain.Relation, len(rel))
		for i, x := range rel {
			if _, cleaned := liveDists(e)[x.ID]; cleaned {
				post[i] = x // still uncertain
			} else {
				post[i] = uncertain.XTuple{ID: x.ID, Dist: uncertain.Certain(oracle.levels[x.ID])}
			}
		}
		sk := res.Levels[len(res.Levels)-1]
		var unc uncertain.Relation
		for _, x := range post {
			if !x.Dist.IsCertain() {
				unc = append(unc, x)
			}
		}
		exact := bruteTopkProb(unc, sk)
		return res.Confidence <= exact+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionBoundWithManyTuples(t *testing.T) {
	// 10^5 tuples each with tail 1e-6 above level 0 and a certain Top-1 at
	// level 0: T(S_k=0) = 0.1, so the union confidence is 0.9 — no
	// underflow or cancellation trouble at this scale.
	rel := make(uncertain.Relation, 0, 100001)
	rel = append(rel, uncertain.XTuple{ID: 0, Dist: uncertain.Certain(0)})
	d := mustDist(0, []float64{1 - 1e-6, 1e-6})
	for i := 1; i <= 100000; i++ {
		rel = append(rel, uncertain.XTuple{ID: i, Dist: d})
	}
	e, err := newEngine(rel, Config{K: 1, Threshold: 0.85, BatchSize: 8, Bound: BoundUnion},
		OracleFunc(func(ids []int) ([]int, error) {
			out := make([]int, len(ids))
			return out, nil
		}), nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	got := e.Confidence()
	if math.Abs(got-0.9) > 1e-6 {
		t.Fatalf("union confidence = %v, want ≈0.9", got)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Confidence < 0.85 {
		t.Fatalf("terminated below threshold: %v", res.Confidence)
	}
}
