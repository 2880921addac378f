package core

import (
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

// BenchmarkEngineRun is NewEngine plus Run over a 20,000-tuple relation.
// The relation is built once, outside the timed region: the engine never
// writes to the relation it is given.
func BenchmarkEngineRun(b *testing.B) {
	rel, oracle := benchRelation(20000, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEngine(rel, Config{K: 50, Threshold: 0.9, BatchSize: 8}, oracle, nil, simclock.Default())
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

// BenchmarkNewEngine is the per-query cost of indexing D0 at a served
// index's size (4,000 tuples, an eighth already certain): the
// ascending-ID check, the live table and the joint-CDF build, whose logs
// are each Dist's own.
func BenchmarkNewEngine(b *testing.B) {
	rel, oracle := benchRelation(4000, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewEngine(rel, Config{K: 10, Threshold: 0.9}, oracle, nil, simclock.Default()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopkProb(b *testing.B) {
	rel, oracle := benchRelation(50000, 500)
	e, err := NewEngine(rel, Config{K: 50, Threshold: 0.9}, oracle, nil, simclock.Default())
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
	e, err := NewEngine(rel, Config{K: 50, Threshold: 0.9, BatchSize: 8}, oracle, nil, simclock.Default())
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
	e, err := NewEngine(rel, Config{
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = uncertain.NewJointCDFFromRelation(rel)
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
