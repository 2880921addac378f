package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/xrand"
)

// runKey is everything a run reports — result, stats, error and every
// simulated charge — with each float as its bits.
func runKey(res Result, err error, clock *simclock.Clock) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ids %v levels %v conf %x bound %v stats %+v err %v",
		res.IDs, res.Levels, math.Float64bits(res.Confidence), res.Bound, res.Stats, err)
	if d := res.Degraded; d != nil {
		fmt.Fprintf(&b, " degraded %s %v %x", d.Reason, d.Unconfirmed, math.Float64bits(d.SpentMS))
	}
	fmt.Fprintf(&b, " total %x", math.Float64bits(clock.TotalMS()))
	for _, ps := range clock.Breakdown() {
		fmt.Fprintf(&b, " %s %x", ps.Phase, math.Float64bits(ps.MS))
	}
	return b.String()
}

// run starts an engine on a fresh clock and runs it to completion.
func run(t *testing.T, start func(clock *simclock.Clock) (*Engine, error)) string {
	t.Helper()
	clock := simclock.NewClock()
	e, err := start(clock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	return runKey(res, err, clock)
}

// materialize is the relation an overlay view stands for: a copy of rel
// with every tuple the view knows certain at its level.
func materialize(rel uncertain.Relation, over func(int) (int, bool)) uncertain.Relation {
	view := append(uncertain.Relation(nil), rel...)
	for i := range view {
		if over == nil {
			break
		}
		if lvl, ok := over(view[i].ID); ok {
			view[i].Dist = uncertain.Certain(lvl)
		}
	}
	return view
}

// viewsFor returns the overlay views the bit-identity test runs under.
func viewsFor(r *xrand.RNG, rel uncertain.Relation) map[string]func(int) (int, bool) {
	lo, hi := math.MaxInt, math.MinInt
	for _, x := range rel {
		lo, hi = min(lo, x.Dist.Min), max(hi, x.Dist.Max())
	}
	table := func(pick func(x uncertain.XTuple) (int, bool)) func(int) (int, bool) {
		levels := map[int]int{}
		for _, x := range rel {
			if lvl, ok := pick(x); ok {
				levels[x.ID] = lvl
			}
		}
		return func(id int) (int, bool) {
			lvl, ok := levels[id]
			return lvl, ok
		}
	}
	return map[string]func(int) (int, bool){
		"nil":              nil,
		"replaces nothing": table(func(uncertain.XTuple) (int, bool) { return 0, false }),
		"certain only, same levels": table(func(x uncertain.XTuple) (int, bool) {
			return x.Dist.Min, x.Dist.IsCertain() && r.Intn(2) == 0
		}),
		"point mass moved": table(func(x uncertain.XTuple) (int, bool) {
			return x.Dist.Min + 1 + r.Intn(4), x.Dist.IsCertain() && r.Intn(3) == 0
		}),
		"uncertain, some outside the range": table(func(x uncertain.XTuple) (int, bool) {
			switch r.Intn(8) {
			case 0:
				return hi + 1 + r.Intn(3), !x.Dist.IsCertain()
			case 1:
				return lo - 1 - r.Intn(3), !x.Dist.IsCertain()
			case 2, 3:
				return x.Dist.Min + r.Intn(len(x.Dist.P)), !x.Dist.IsCertain()
			}
			return 0, false
		}),
		"every tuple": table(func(x uncertain.XTuple) (int, bool) {
			return x.Dist.Min + r.Intn(len(x.Dist.P)), true
		}),
	}
}

// TestStartMatchesMaterializedView: Prepare + Start under an overlay
// view is bit-identical to NewEngine over a materialized copy of the
// view — result, stats, error and every simulated charge — for both
// bounds; views that replace nothing, certain tuples only, a point mass
// moved to another level, levels outside the base's range, and every
// tuple; K ∈ {1, 5, n}; the paper's schedule, no early stop, one
// re-sort, and a degraded deadline. One base serves every run, so a run
// that wrote to the base would show in the ones after it.
func TestStartMatchesMaterializedView(t *testing.T) {
	variants := map[string]func(Config) Config{
		"default":           func(c Config) Config { return c },
		"no early stop":     func(c Config) Config { c.DisableEarlyStop = true; return c },
		"resort once":       func(c Config) Config { c.ResortOnce = true; return c },
		"degraded deadline": func(c Config) Config { c.BudgetMS, c.DegradedOK = 30, true; return c },
	}
	cost := simclock.Default()
	for _, bound := range []BoundKind{BoundIndependent, BoundUnion} {
		for seed := uint64(0); seed < 5; seed++ {
			r := xrand.New(300 + seed)
			n := 30 + r.Intn(60)
			rel, oracle := randomRelation(r, n, n/5, 5, 10)
			base, err := Prepare(rel, bound)
			if err != nil {
				t.Fatal(err)
			}
			for name, over := range viewsFor(r, rel) {
				view := materialize(rel, over)
				for _, k := range []int{1, 5, n} {
					for vname, variant := range variants {
						cfg := variant(Config{K: k, Threshold: 0.95, BatchSize: 3, Bound: bound})
						want := run(t, func(clock *simclock.Clock) (*Engine, error) {
							return NewEngine(view, cfg, oracle, clock, cost)
						})
						got := run(t, func(clock *simclock.Clock) (*Engine, error) {
							return base.Start(cfg, over, oracle, clock, cost)
						})
						if got != want {
							t.Fatalf("bound %v seed %d view %q K=%d %s:\n got %s\nwant %s", bound, seed, name, k, vname, got, want)
						}
					}
				}
			}
		}
	}
}

// TestStartRejectsAnotherBound: a base serves runs under the bound it
// was prepared for only.
func TestStartRejectsAnotherBound(t *testing.T) {
	rel, oracle := randomRelation(xrand.New(5), 20, 4, 4, 6)
	base, err := Prepare(rel, BoundIndependent)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Start(Config{K: 2, Threshold: 0.9, Bound: BoundUnion}, nil, oracle, nil, simclock.Default()); err == nil {
		t.Fatal("a union-bound run over an independent-bound base was accepted")
	}
}

// TestBaseSharedAcrossGoroutines: eight goroutines start runs over one
// cold base at once — the first of them builds its memoized joint CDF
// while the others wait for it (run under -race) — and each gets what a
// run of its own would.
func TestBaseSharedAcrossGoroutines(t *testing.T) {
	rel, oracle := randomRelation(xrand.New(6), 400, 40, 6, 20)
	levels := oracle.levels
	cfg := Config{K: 8, Threshold: 0.95, BatchSize: 4}
	want := run(t, func(clock *simclock.Clock) (*Engine, error) {
		return NewEngine(rel, cfg, &trueWorldOracle{levels: levels}, clock, simclock.Default())
	})
	base, err := Prepare(rel, BoundIndependent)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clock := simclock.NewClock()
			e, err := base.Start(cfg, nil, &trueWorldOracle{levels: levels}, clock, simclock.Default())
			if err != nil {
				t.Error(err)
				return
			}
			res, err := e.Run()
			if got := runKey(res, err, clock); got != want {
				t.Errorf("goroutine %d:\n got %s\nwant %s", g, got, want)
			}
		}()
	}
	wg.Wait()
}
