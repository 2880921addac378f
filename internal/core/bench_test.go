package core

import (
	"iter"
	"slices"
	"testing"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/xrand"
)

// benchRelation builds an n-tuple relation with calibrated true scores.
func benchRelation(n, nCertain int) (uncertain.Relation, *trueWorldOracle) {
	r := xrand.New(99)
	return randomRelation(r, n, nCertain, 6, 20)
}

// BenchmarkEngineRun is Start and Run over a 20,000-tuple relation
// prepared once, outside the timed region, as an index prepares its D0
// once for every query: a run never writes to the base it starts from.
// BenchmarkPrepare times the preparation.
func BenchmarkEngineRun(b *testing.B) {
	rel, oracle := benchRelation(20000, 500)
	cfg := Config{K: 50, Threshold: 0.9, BatchSize: 8}
	base, err := Prepare(rel, cfg.Bound)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := base.Start(cfg, nil, nil, oracle, nil, simclock.Default())
		if err != nil {
			b.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.Cleaned), "cleaned")
		b.ReportMetric(float64(res.Stats.Examined), "examined")
	}
}

// BenchmarkPrepare is the once-per-index cost of preparing D0 at a
// served index's size (4,000 tuples, an eighth already certain): the
// ascending-ID check, the live mask, the top-level buckets and the
// certain tuples' ranking.
func BenchmarkPrepare(b *testing.B) {
	rel, _ := benchRelation(4000, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Prepare(rel, BoundIndependent); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStart is the per-query cost of starting a run over that
// prepared D0: base is a run with no overrides (a clone of the memoized
// joint CDF, the top-K prefix of the certain tuples, a copy of the live
// mask, a bit per tuple); overlay one whose overrides make every fourth
// tuple certain, an eighth of them certain in the base already;
// overlay_live the frame query's shape, overrides on about a tenth of
// the uncertain tuples only; window_overlay a window query's, a run relation with every
// other tuple re-distributed — the certain ones to another point mass,
// the uncertain ones to a fresh distribution in place — all of them
// overrides. An overlay run walks its overrides once, merges the ranked
// certain tuples behind them, and sums the joint CDF over the run
// relation from the K-th certain level up.
func BenchmarkStart(b *testing.B) {
	rel, oracle := benchRelation(4000, 500)
	base, err := Prepare(rel, BoundIndependent)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{K: 10, Threshold: 0.9, BatchSize: 8}
	overridesOf := func(run uncertain.Relation, keep func(pos int) bool) iter.Seq2[int, uncertain.Dist] {
		var ps []int
		for pos := range run {
			if keep(pos) {
				ps = append(ps, pos)
			}
		}
		return func(yield func(int, uncertain.Dist) bool) {
			for _, pos := range ps {
				if !yield(pos, run[pos].Dist) {
					return
				}
			}
		}
	}
	certainAt := slices.Clone(rel)
	for pos, x := range certainAt {
		certainAt[pos].Dist = uncertain.Certain(x.ID % 20)
	}
	windowRun := slices.Clone(rel)
	r := xrand.New(7)
	for pos, x := range windowRun {
		switch {
		case pos%2 == 1:
		case x.Dist.IsCertain():
			windowRun[pos].Dist = uncertain.Certain(x.Dist.Min + 1)
		default:
			windowRun[pos].Dist = randomDist(r, x.Dist.Min+r.Intn(3)-1)
		}
	}
	views := []struct {
		name string
		rel  uncertain.Relation
		over iter.Seq2[int, uncertain.Dist]
	}{
		{"base", nil, nil},
		{"overlay", nil, overridesOf(certainAt, func(pos int) bool { return rel[pos].ID%4 == 1 })},
		{"overlay_live", nil, overridesOf(certainAt, func(pos int) bool { return !rel[pos].Dist.IsCertain() && pos%10 == 3 })},
		{"window_overlay", windowRun, overridesOf(windowRun, func(pos int) bool { return pos%2 == 0 })},
	}
	for _, v := range views {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := base.Start(cfg, v.rel, v.over, oracle, nil, simclock.Default()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTopkProb(b *testing.B) {
	rel, oracle := benchRelation(50000, 500)
	e, err := newEngine(rel, Config{K: 50, Threshold: 0.9, BatchSize: 8}, oracle, nil, simclock.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Confidence()
	}
}

func BenchmarkSelectBatch(b *testing.B) {
	rel, oracle := benchRelation(50000, 500)
	e, err := newEngine(rel, Config{K: 50, Threshold: 0.9, BatchSize: 8}, oracle, nil, simclock.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.sel.sorted = false // force the full resort + scan path
		_ = e.sel.selectBatch()
	}
}

// BenchmarkSelectBatchExhaustive is the scan that cannot early-stop
// (ablation A1's worst case): every selectBatch call evaluates E[X_f]
// for all ~49.5k uncertain candidates.
func BenchmarkSelectBatchExhaustive(b *testing.B) {
	rel, oracle := benchRelation(50000, 500)
	e, err := newEngine(rel, Config{
		K: 50, Threshold: 0.9, BatchSize: 8, DisableEarlyStop: true,
	}, oracle, nil, simclock.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.sel.sorted = false
		_ = e.sel.selectBatch()
	}
}

func BenchmarkJointCDFBuild(b *testing.B) {
	rel, _ := benchRelation(50000, 0)
	base, err := Prepare(rel, BoundIndependent)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = uncertain.NewJointCDFFromRelation(base.rel, base.live, base.lo, base.hi)
	}
}

func BenchmarkUKRanks(b *testing.B) {
	rel, _ := benchRelation(500, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = UKRanks(rel, 10)
	}
}

func BenchmarkPTk(b *testing.B) {
	rel, _ := benchRelation(500, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PTk(rel, 10, 0.5)
	}
}
