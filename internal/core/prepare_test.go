package core

import (
	"fmt"
	"iter"
	"math"
	"slices"
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

// view is a run's overrides as a table, tuple ID → exact level.
type view map[int]int

// materialize is the relation a view stands for: a copy of rel with
// every tuple the view names certain at its level.
func materialize(rel uncertain.Relation, v view) uncertain.Relation {
	out := append(uncertain.Relation(nil), rel...)
	for i := range out {
		if lvl, ok := v[out[i].ID]; ok {
			out[i].Dist = uncertain.Certain(lvl)
		}
	}
	return out
}

// enumerate is the view as Start's overrides over rel: (position,
// level) pairs in ascending position, or — given a generator — in an
// order shuffled afresh by every call. A nil view is the nil
// enumeration.
func enumerate(rel uncertain.Relation, v view, shuffle *xrand.RNG) iter.Seq2[int, int] {
	if v == nil {
		return nil
	}
	var pos []int
	for i, x := range rel {
		if _, ok := v[x.ID]; ok {
			pos = append(pos, i)
		}
	}
	return func(yield func(int, int) bool) {
		order := slices.Clone(pos)
		if shuffle != nil {
			for i := len(order) - 1; i > 0; i-- {
				j := shuffle.Intn(i + 1)
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, i := range order {
			if !yield(i, v[rel[i].ID]) {
				return
			}
		}
	}
}

// viewsFor returns the views the bit-identity test runs under.
func viewsFor(r *xrand.RNG, rel uncertain.Relation) map[string]view {
	lo, hi := math.MaxInt, math.MinInt
	var ranked []certEntry
	for _, x := range rel {
		lo, hi = min(lo, x.Dist.Min), max(hi, x.Dist.Max())
		if x.Dist.IsCertain() {
			ranked = append(ranked, certEntry{id: x.ID, level: x.Dist.Min})
		}
	}
	slices.SortFunc(ranked, compareRank)
	table := func(pick func(x uncertain.XTuple) (int, bool)) view {
		v := view{}
		for _, x := range rel {
			if lvl, ok := pick(x); ok {
				v[x.ID] = lvl
			}
		}
		return v
	}
	// The base's top certain tuples, which a replacing override must
	// push out of (or keep in) the top K the merge builds.
	top := map[int]bool{}
	for _, c := range ranked[:min(5, len(ranked))] {
		top[c.id] = true
	}
	return map[string]view{
		"nil":              nil,
		"replaces nothing": view{},
		"certain only, same levels": table(func(x uncertain.XTuple) (int, bool) {
			return x.Dist.Min, x.Dist.IsCertain() && r.Intn(2) == 0
		}),
		"point mass moved": table(func(x uncertain.XTuple) (int, bool) {
			return x.Dist.Min + 1 + r.Intn(4), x.Dist.IsCertain() && r.Intn(3) == 0
		}),
		"base top certain demoted, some uncertain": table(func(x uncertain.XTuple) (int, bool) {
			if top[x.ID] {
				return x.Dist.Min - 1 - r.Intn(3), r.Intn(3) > 0
			}
			return x.Dist.Min + r.Intn(len(x.Dist.P)), !x.Dist.IsCertain() && r.Intn(6) == 0
		}),
		"base top certain promoted": table(func(x uncertain.XTuple) (int, bool) {
			return x.Dist.Min + r.Intn(3), top[x.ID] && r.Intn(2) == 0
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
		"certain, some outside the range": table(func(x uncertain.XTuple) (int, bool) {
			switch r.Intn(6) {
			case 0:
				return hi + 1 + r.Intn(3), x.Dist.IsCertain()
			case 1:
				return lo - 1 - r.Intn(3), x.Dist.IsCertain()
			}
			return 0, false
		}),
		"every tuple": table(func(x uncertain.XTuple) (int, bool) {
			return x.Dist.Min + r.Intn(len(x.Dist.P)), true
		}),
	}
}

// TestStartMatchesMaterializedView: Prepare + Start under a view's
// overrides is bit-identical to NewEngine over a materialized copy of
// the view — result, stats, error and every simulated charge — for both
// bounds; views that replace nothing (the empty enumeration), certain
// tuples only, a point mass moved to another level, the base's top
// certain tuples demoted or promoted (the merge's replaced entries),
// uncertain or certain tuples at levels outside the base's range, and
// every tuple; overrides yielded in ascending position and shuffled;
// K ∈ {1, 5, n}; the paper's schedule, no early stop, one re-sort, and
// a degraded deadline. One base serves every run, so a run that wrote
// to the base would show in the ones after it.
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
			for name, v := range viewsFor(r, rel) {
				mat := materialize(rel, v)
				for _, order := range []string{"ascending", "shuffled"} {
					var shuffle *xrand.RNG
					if order == "shuffled" {
						shuffle = r.Split(name)
					}
					over := enumerate(rel, v, shuffle)
					for _, k := range []int{1, 5, n} {
						for vname, variant := range variants {
							cfg := variant(Config{K: k, Threshold: 0.95, BatchSize: 3, Bound: bound})
							want := run(t, func(clock *simclock.Clock) (*Engine, error) {
								return NewEngine(mat, cfg, oracle, clock, cost)
							})
							got := run(t, func(clock *simclock.Clock) (*Engine, error) {
								return base.Start(cfg, over, oracle, clock, cost)
							})
							if got != want {
								t.Fatalf("bound %v seed %d view %q %s K=%d %s:\n got %s\nwant %s", bound, seed, name, order, k, vname, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestStartEmptyEnumerationIsUncached: an enumeration that yields
// nothing starts the run the nil one does — the base's own accumulator,
// cloned — so the two answer alike.
func TestStartEmptyEnumerationIsUncached(t *testing.T) {
	rel, oracle := randomRelation(xrand.New(7), 60, 12, 5, 10)
	base, err := Prepare(rel, BoundIndependent)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 5, Threshold: 0.95, BatchSize: 3}
	want := run(t, func(clock *simclock.Clock) (*Engine, error) {
		return base.Start(cfg, nil, oracle, clock, simclock.Default())
	})
	got := run(t, func(clock *simclock.Clock) (*Engine, error) {
		return base.Start(cfg, func(func(int, int) bool) {}, oracle, clock, simclock.Default())
	})
	if got != want {
		t.Fatalf("empty enumeration:\n got %s\nwant %s", got, want)
	}
}

// TestStartRejectsMalformedOverrides: a position overridden twice —
// uncertain or certain in the base — or outside the base is an error,
// not a panic, and leaves the base serving runs as before.
func TestStartRejectsMalformedOverrides(t *testing.T) {
	rel, oracle := randomRelation(xrand.New(8), 40, 8, 5, 10)
	base, err := Prepare(rel, BoundIndependent)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 3, Threshold: 0.95, BatchSize: 3}
	want := run(t, func(clock *simclock.Clock) (*Engine, error) {
		return base.Start(cfg, nil, oracle, clock, simclock.Default())
	})
	pairs := func(ps ...[2]int) iter.Seq2[int, int] {
		return func(yield func(int, int) bool) {
			for _, p := range ps {
				if !yield(p[0], p[1]) {
					return
				}
			}
		}
	}
	for name, over := range map[string]iter.Seq2[int, int]{
		"uncertain twice":  pairs([2]int{20, 3}, [2]int{9, 1}, [2]int{20, 4}),
		"certain twice":    pairs([2]int{2, 3}, [2]int{20, 1}, [2]int{2, 3}),
		"negative":         pairs([2]int{20, 3}, [2]int{-1, 3}),
		"past the end":     pairs([2]int{40, 3}),
		"far past the end": pairs([2]int{5, 2}, [2]int{1 << 40, 3}),
	} {
		if _, err := base.Start(cfg, over, oracle, nil, simclock.Default()); err == nil {
			t.Fatalf("%s: Start accepted malformed overrides", name)
		}
		got := run(t, func(clock *simclock.Clock) (*Engine, error) {
			return base.Start(cfg, nil, oracle, clock, simclock.Default())
		})
		if got != want {
			t.Fatalf("after %s, an uncached run differs:\n got %s\nwant %s", name, got, want)
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
