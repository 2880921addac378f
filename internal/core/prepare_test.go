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

// view is a run's overrides as a table, tuple ID → the distribution it
// takes in place of its base one: a point mass, or an uncertain
// distribution the run relation holds.
type view map[int]uncertain.Dist

// materialize is the relation a view stands for: a copy of rel with
// every tuple the view names given its distribution. It is also the run
// relation Start reads the uncertain overrides from.
func materialize(rel uncertain.Relation, v view) uncertain.Relation {
	out := append(uncertain.Relation(nil), rel...)
	for i := range out {
		if d, ok := v[out[i].ID]; ok {
			out[i].Dist = d
		}
	}
	return out
}

// uncertainIn reports whether the view gives some tuple an uncertain
// distribution, which only a run relation can carry.
func (v view) uncertainIn() bool {
	for _, d := range v {
		if !d.IsCertain() {
			return true
		}
	}
	return false
}

// enumerate is the view as Start's overrides over the run relation mat:
// (position, distribution) pairs in ascending position, or — given a
// generator — in an order shuffled afresh by every call. A nil view is
// the nil enumeration.
func enumerate(mat uncertain.Relation, v view, shuffle *xrand.RNG) iter.Seq2[int, uncertain.Dist] {
	if v == nil {
		return nil
	}
	var pos []int
	for i, x := range mat {
		if _, ok := v[x.ID]; ok {
			pos = append(pos, i)
		}
	}
	return func(yield func(int, uncertain.Dist) bool) {
		order := slices.Clone(pos)
		if shuffle != nil {
			for i := len(order) - 1; i > 0; i-- {
				j := shuffle.Intn(i + 1)
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, i := range order {
			if !yield(i, mat[i].Dist) {
				return
			}
		}
	}
}

// randomDist is an uncertain distribution of 2 to 5 levels from min up.
func randomDist(r *xrand.RNG, min int) uncertain.Dist {
	probs := make([]float64, 2+r.Intn(4))
	for k := range probs {
		probs[k] = 0.05 + r.Float64()
	}
	return mustDist(min, probs)
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
	table := func(pick func(x uncertain.XTuple) (uncertain.Dist, bool)) view {
		v := view{}
		for _, x := range rel {
			if d, ok := pick(x); ok {
				v[x.ID] = d
			}
		}
		return v
	}
	at := uncertain.Certain
	// The base's top certain tuples, which a replacing override must
	// push out of (or keep in) the top K the merge builds.
	top := map[int]bool{}
	for _, c := range ranked[:min(5, len(ranked))] {
		top[c.id] = true
	}
	return map[string]view{
		"nil":              nil,
		"replaces nothing": view{},
		"certain only, same levels": table(func(x uncertain.XTuple) (uncertain.Dist, bool) {
			return at(x.Dist.Min), x.Dist.IsCertain() && r.Intn(2) == 0
		}),
		"point mass moved": table(func(x uncertain.XTuple) (uncertain.Dist, bool) {
			return at(x.Dist.Min + 1 + r.Intn(4)), x.Dist.IsCertain() && r.Intn(3) == 0
		}),
		"base top certain demoted, some uncertain": table(func(x uncertain.XTuple) (uncertain.Dist, bool) {
			if top[x.ID] {
				return at(x.Dist.Min - 1 - r.Intn(3)), r.Intn(3) > 0
			}
			return at(x.Dist.Min + r.Intn(len(x.Dist.P))), !x.Dist.IsCertain() && r.Intn(6) == 0
		}),
		"base top certain promoted": table(func(x uncertain.XTuple) (uncertain.Dist, bool) {
			return at(x.Dist.Min + r.Intn(3)), top[x.ID] && r.Intn(2) == 0
		}),
		"uncertain, some outside the range": table(func(x uncertain.XTuple) (uncertain.Dist, bool) {
			switch r.Intn(8) {
			case 0:
				return at(hi + 1 + r.Intn(3)), !x.Dist.IsCertain()
			case 1:
				return at(lo - 1 - r.Intn(3)), !x.Dist.IsCertain()
			case 2, 3:
				return at(x.Dist.Min + r.Intn(len(x.Dist.P))), !x.Dist.IsCertain()
			}
			return uncertain.Dist{}, false
		}),
		"certain, some outside the range": table(func(x uncertain.XTuple) (uncertain.Dist, bool) {
			switch r.Intn(6) {
			case 0:
				return at(hi + 1 + r.Intn(3)), x.Dist.IsCertain()
			case 1:
				return at(lo - 1 - r.Intn(3)), x.Dist.IsCertain()
			}
			return uncertain.Dist{}, false
		}),
		"every tuple": table(func(x uncertain.XTuple) (uncertain.Dist, bool) {
			return at(x.Dist.Min + r.Intn(len(x.Dist.P))), true
		}),
		"live tuples re-distributed": table(func(x uncertain.XTuple) (uncertain.Dist, bool) {
			return randomDist(r, x.Dist.Min+r.Intn(3)-1), !x.Dist.IsCertain() && r.Intn(3) == 0
		}),
		"base certain made uncertain": table(func(x uncertain.XTuple) (uncertain.Dist, bool) {
			return randomDist(r, x.Dist.Min-r.Intn(2)), x.Dist.IsCertain() && (top[x.ID] || r.Intn(3) == 0)
		}),
		"re-distributed outside the range": table(func(x uncertain.XTuple) (uncertain.Dist, bool) {
			switch r.Intn(6) {
			case 0:
				return randomDist(r, hi+r.Intn(3)), true
			case 1:
				return randomDist(r, lo-6-r.Intn(3)), true
			}
			return uncertain.Dist{}, false
		}),
		// With fewer than K certain tuples the accumulator starts at the
		// lowest live level: here bootstrap cleans tuples to levels from
		// the base's range, S_k falls to a point mass below it, and every
		// live tuple reaches that low.
		"every tuple below the range, two certain": table(func(x uncertain.XTuple) (uncertain.Dist, bool) {
			if x.ID < 2 {
				return at(lo - 8 - x.ID), true
			}
			return randomDist(r, lo-10-r.Intn(2)), true
		}),
		"mixed, as a window overlay": table(func(x uncertain.XTuple) (uncertain.Dist, bool) {
			switch r.Intn(4) {
			case 0:
				return at(x.Dist.Min + r.Intn(3)), true
			case 1:
				return randomDist(r, x.Dist.Min+r.Intn(3)-1), true
			}
			return uncertain.Dist{}, false
		}),
	}
}

// TestStartMatchesMaterializedView: Prepare + Start under a view's
// overrides is bit-identical to Prepare + Start with no override over a
// materialized copy of the view — result, stats, error and every
// simulated charge — for both bounds; views that replace nothing (the
// empty enumeration), certain tuples only, a point mass moved to another
// level, the base's top certain tuples demoted or promoted (the merge's
// replaced entries), uncertain or certain tuples at levels outside the
// base's range, every tuple, live tuples given a new distribution, base
// certain tuples made uncertain, new distributions reaching outside the
// base's [lo, hi] (every tuple below it, with S_k falling there too),
// and a window overlay's mix of both kinds; overrides
// yielded in ascending position and shuffled; the run relation nil
// (certain overrides only) or the materialized copy; K ∈ {1, 5, n};
// the paper's schedule, no early stop, one re-sort, and a degraded
// deadline. One base serves every run, so a run that wrote to the base
// would show in the ones after it, and the run relation is checked
// unwritten after its runs.
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
				given := slices.Clone(mat)
				runRels := map[string]uncertain.Relation{"run relation": mat}
				if !v.uncertainIn() {
					runRels["nil relation"] = nil
				}
				for _, order := range []string{"ascending", "shuffled"} {
					var shuffle *xrand.RNG
					if order == "shuffled" {
						shuffle = r.Split(name)
					}
					over := enumerate(mat, v, shuffle)
					for _, k := range []int{1, 5, n} {
						for vname, variant := range variants {
							cfg := variant(Config{K: k, Threshold: 0.95, BatchSize: 3, Bound: bound})
							want := run(t, func(clock *simclock.Clock) (*Engine, error) {
								return newEngine(mat, cfg, oracle, clock, cost)
							})
							for rname, runRel := range runRels {
								got := run(t, func(clock *simclock.Clock) (*Engine, error) {
									return base.Start(cfg, runRel, over, oracle, clock, cost)
								})
								if got != want {
									t.Fatalf("bound %v seed %d view %q %s %s K=%d %s:\n got %s\nwant %s", bound, seed, name, order, rname, k, vname, got, want)
								}
							}
						}
					}
				}
				if !sameTuples(mat, given) {
					t.Fatalf("bound %v seed %d view %q: a run wrote its run relation", bound, seed, name)
				}
			}
		}
	}
}

// sameTuples reports whether a and b hold the same IDs and the very
// same distribution tables.
func sameTuples(a, b uncertain.Relation) bool {
	return slices.EqualFunc(a, b, func(x, y uncertain.XTuple) bool {
		return x.ID == y.ID && sameTable(x.Dist, y.Dist)
	})
}

// sameTable reports whether two non-empty distributions are one: the
// same levels over the very same table.
func sameTable(a, b uncertain.Dist) bool {
	return a.Min == b.Min && len(a.P) == len(b.P) && &a.P[0] == &b.P[0]
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
		return base.Start(cfg, nil, nil, oracle, clock, simclock.Default())
	})
	got := run(t, func(clock *simclock.Clock) (*Engine, error) {
		return base.Start(cfg, nil, func(func(int, uncertain.Dist) bool) {}, oracle, clock, simclock.Default())
	})
	if got != want {
		t.Fatalf("empty enumeration:\n got %s\nwant %s", got, want)
	}
}

// pairs enumerates the given (position, distribution) overrides in order.
func pairs(ps ...overridePair) iter.Seq2[int, uncertain.Dist] {
	return func(yield func(int, uncertain.Dist) bool) {
		for _, p := range ps {
			if !yield(p.pos, p.d) {
				return
			}
		}
	}
}

type overridePair struct {
	pos int
	d   uncertain.Dist
}

// TestStartRejectsMalformedOverrides: a position overridden twice —
// uncertain or certain in the base, by certain or uncertain overrides in
// either order — or outside the base, an empty distribution, an
// uncertain override that is not the run relation's tuple (another
// table, or another ID), and a run relation of another length are
// errors, not panics, and leave the base serving runs as before.
func TestStartRejectsMalformedOverrides(t *testing.T) {
	r := xrand.New(8)
	rel, oracle := randomRelation(r, 40, 8, 5, 10)
	base, err := Prepare(rel, BoundIndependent)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 3, Threshold: 0.95, BatchSize: 3}
	want := run(t, func(clock *simclock.Clock) (*Engine, error) {
		return base.Start(cfg, nil, nil, oracle, clock, simclock.Default())
	})
	at := func(pos, level int) overridePair { return overridePair{pos, uncertain.Certain(level)} }
	// own is a run relation with fresh distributions at positions 2 (a
	// certain base tuple) and 20 (an uncertain one).
	own := slices.Clone(rel)
	own[2].Dist, own[20].Dist = randomDist(r, 3), randomDist(r, 4)
	renamed := slices.Clone(own)
	renamed[20].ID = 1000
	for name, c := range map[string]struct {
		rel  uncertain.Relation
		over iter.Seq2[int, uncertain.Dist]
	}{
		"uncertain twice":                  {nil, pairs(at(20, 3), at(9, 1), at(20, 4))},
		"certain twice":                    {nil, pairs(at(2, 3), at(20, 1), at(2, 3))},
		"negative":                         {nil, pairs(at(20, 3), at(-1, 3))},
		"past the end":                     {nil, pairs(at(40, 3))},
		"far past the end":                 {nil, pairs(at(5, 2), at(1<<40, 3))},
		"empty distribution":               {nil, pairs(at(5, 2), overridePair{20, uncertain.Dist{}})},
		"another table":                    {own, pairs(overridePair{20, randomDist(r, 4)})},
		"the base's table, not the run's":  {own, pairs(overridePair{20, rel[20].Dist})},
		"another ID":                       {renamed, pairs(overridePair{20, renamed[20].Dist})},
		"uncertain, no run relation":       {nil, pairs(overridePair{20, own[20].Dist})},
		"certain then uncertain":           {own, pairs(at(20, 3), overridePair{20, own[20].Dist})},
		"uncertain then certain":           {own, pairs(overridePair{20, own[20].Dist}, at(20, 3))},
		"base certain, uncertain twice":    {own, pairs(overridePair{2, own[2].Dist}, overridePair{2, own[2].Dist})},
		"base certain, uncertain, certain": {own, pairs(overridePair{2, own[2].Dist}, at(2, 1))},
		"short run relation":               {rel[:39], nil},
		"long run relation":                {append(slices.Clone(rel), uncertain.XTuple{ID: 40, Dist: uncertain.Certain(1)}), pairs(at(20, 3))},
	} {
		if _, err := base.Start(cfg, c.rel, c.over, oracle, nil, simclock.Default()); err == nil {
			t.Fatalf("%s: Start accepted malformed overrides", name)
		}
		got := run(t, func(clock *simclock.Clock) (*Engine, error) {
			return base.Start(cfg, nil, nil, oracle, clock, simclock.Default())
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
	if _, err := base.Start(Config{K: 2, Threshold: 0.9, BatchSize: 8, Bound: BoundUnion}, nil, nil, oracle, nil, simclock.Default()); err == nil {
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
		return newEngine(rel, cfg, &trueWorldOracle{levels: levels}, clock, simclock.Default())
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
			e, err := base.Start(cfg, nil, nil, &trueWorldOracle{levels: levels}, clock, simclock.Default())
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

// mixedRelation is a relation of n tuples with ascending, gapped IDs,
// each certain with probability pCertain, uncertain tuples at most 6
// levels wide starting in [minLo, minLo+10], and a true-world oracle.
func mixedRelation(r *xrand.RNG, n int, pCertain float64, minLo int) (uncertain.Relation, *trueWorldOracle) {
	rel := make(uncertain.Relation, 0, n)
	oracle := &trueWorldOracle{levels: make(map[int]int)}
	id := r.Intn(3)
	for i := 0; i < n; i++ {
		var d uncertain.Dist
		if r.Float64() < pCertain {
			d = uncertain.Certain(minLo + r.Intn(14))
		} else {
			probs := make([]float64, 2+r.Intn(5))
			for k := range probs {
				probs[k] = 0.05 + r.Float64()
			}
			d = mustDist(minLo+r.Intn(11), probs)
		}
		rel = append(rel, uncertain.XTuple{ID: id, Dist: d})
		oracle.levels[id] = sampleLevel(r, d)
		id += 1 + r.Intn(3)
	}
	return rel, oracle
}

// sameBase reports how got differs from want field by field, or "".
func sameBase(got, want *Base) string {
	switch {
	case !sameTuples(got.rel, want.rel):
		return "rel"
	case got.bound != want.bound:
		return "bound"
	case !slices.Equal(got.live, want.live):
		return fmt.Sprintf("live %v, want %v", got.live, want.live)
	case got.nLive != want.nLive:
		return fmt.Sprintf("nLive %d, want %d", got.nLive, want.nLive)
	case !slices.Equal(got.ranked, want.ranked):
		return fmt.Sprintf("ranked %v, want %v", got.ranked, want.ranked)
	case got.lo != want.lo || got.hi != want.hi:
		return fmt.Sprintf("range [%d, %d], want [%d, %d]", got.lo, got.hi, want.lo, want.hi)
	case got.maxLo != want.maxLo || !slices.EqualFunc(got.byMax, want.byMax, slices.Equal):
		return fmt.Sprintf("top-level buckets from %d %v, want from %d %v", got.maxLo, got.byMax, want.maxLo, want.byMax)
	}
	return ""
}

// TestBaseExtendMatchesPrepare: a base prepared over a prefix of a
// relation and extended over the rest, one random tail at a time, has
// after every step exactly the fields Prepare gives that prefix, and
// runs over it are bit-identical, under both bounds — including an
// empty tail, an all-certain tail and a tail that widens the level
// range (and the top-level buckets' range below). Every base of the
// line stays what Prepare gives its prefix. A tail out of ID order (or
// repeating the last ID) is an error that leaves the base untouched,
// and a valid retry then equals Prepare although the failed attempt
// set live bits for the tail it rejected.
func TestBaseExtendMatchesPrepare(t *testing.T) {
	cost := simclock.Default()
	check := func(t *testing.T, what string, got *Base, rel uncertain.Relation, oracle *trueWorldOracle, bound BoundKind) {
		t.Helper()
		want, err := Prepare(rel, bound)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameBase(got, want); d != "" {
			t.Fatalf("%s: extended base differs from Prepare's: %s", what, d)
		}
		for _, k := range []int{1, 4} {
			cfg := Config{K: min(k, len(rel)), Threshold: 0.95, BatchSize: 3, Bound: bound}
			wantRun := run(t, func(clock *simclock.Clock) (*Engine, error) {
				return want.Start(cfg, nil, nil, oracle, clock, cost)
			})
			if gotRun := run(t, func(clock *simclock.Clock) (*Engine, error) {
				return got.Start(cfg, nil, nil, oracle, clock, cost)
			}); gotRun != wantRun {
				t.Fatalf("%s K=%d: run over the extended base:\n got %s\nwant %s", what, k, gotRun, wantRun)
			}
		}
	}
	for _, bound := range []BoundKind{BoundIndependent, BoundUnion} {
		for seed := uint64(0); seed < 12; seed++ {
			r := xrand.New(700 + seed)
			n := 10 + r.Intn(90)
			rel, oracle := mixedRelation(r, n, 0.3, 5)
			switch seed % 4 {
			case 1: // an all-certain tail
				for i := n / 2; i < n; i++ {
					rel[i].Dist = uncertain.Certain(rel[i].ID % 17)
					oracle.levels[rel[i].ID] = rel[i].ID % 17
				}
			case 2: // a tail reaching below and above the prefix's levels
				rel[n-3].Dist = mustDist(-3, []float64{1, 1})
				oracle.levels[rel[n-3].ID] = -2
				rel[n-2].Dist = uncertain.Certain(0)
				oracle.levels[rel[n-2].ID] = 0
				rel[n-1].Dist = mustDist(20, []float64{1, 1, 1})
				oracle.levels[rel[n-1].ID] = 21
			}
			cut := 1 + r.Intn(n/2)
			base, err := Prepare(rel[:cut], bound)
			if err != nil {
				t.Fatal(err)
			}
			for cut < n {
				if r.Intn(4) == 0 {
					if base, err = base.Extend(rel[:cut]); err != nil {
						t.Fatal(err)
					}
					check(t, fmt.Sprintf("bound %v seed %d empty tail at %d", bound, seed, cut), base, rel[:cut], oracle, bound)
				}
				next := cut + 1 + r.Intn(n-cut)
				prev := base
				if base, err = base.Extend(rel[:next]); err != nil {
					t.Fatal(err)
				}
				check(t, fmt.Sprintf("bound %v seed %d [0, %d)", bound, seed, next), base, rel[:next], oracle, bound)
				if want, err := Prepare(rel[:cut], bound); err != nil {
					t.Fatal(err)
				} else if d := sameBase(prev, want); d != "" {
					t.Fatalf("bound %v seed %d: extending to %d changed the base of [0, %d): %s", bound, seed, next, cut, d)
				}
				cut = next
			}
			// The initial prefix ends by n/2, so the widening tuples came
			// in a tail.
			if narrow, err := Prepare(rel[:n-3], bound); err != nil {
				t.Fatal(err)
			} else if seed%4 == 2 && (base.lo >= narrow.lo || base.hi <= narrow.hi || base.maxLo >= narrow.maxLo) {
				t.Fatalf("seed %d: the tail did not widen [%d, %d] and top levels from %d (got [%d, %d] from %d)",
					seed, narrow.lo, narrow.hi, narrow.maxLo, base.lo, base.hi, base.maxLo)
			}
		}
	}

	// The rejected-tail case: a rejected tail whose uncertain tuples set
	// live bits before its bad ID, then a valid tail certain where the
	// bad one was not. Every extension writes its live bits into a mask
	// of its own — the tail's first bits share the parent's last word —
	// so neither the base nor the retry sees the rejected tail's bits.
	r := xrand.New(799)
	rel, oracle := mixedRelation(r, 24, 0, 5)
	for i := 11; i < len(rel); i++ {
		rel[i].Dist = uncertain.Certain(i % 9)
		oracle.levels[rel[i].ID] = i % 9
	}
	first, err := Prepare(rel[:10], BoundIndependent)
	if err != nil {
		t.Fatal(err)
	}
	base, err := first.Extend(rel[:11])
	if err != nil {
		t.Fatal(err)
	}
	if &base.live[0] == &first.live[0] {
		t.Fatal("the extension shares its parent's live mask")
	}
	snap := &Base{rel: base.rel, bound: base.bound, live: slices.Clone(base.live), nLive: base.nLive, ranked: slices.Clone(base.ranked), lo: base.lo, hi: base.hi,
		byMax: slices.Clone(base.byMax), maxLo: base.maxLo}
	for l, bucket := range snap.byMax {
		snap.byMax[l] = slices.Clone(bucket)
	}
	for _, badID := range []int{rel[10].ID + 6, rel[3].ID} {
		bad := slices.Clone(rel[:11])
		for i := 0; i < 6; i++ {
			bad = append(bad, uncertain.XTuple{ID: rel[10].ID + 1 + i, Dist: mustDist(5, []float64{1, 1})})
		}
		bad = append(bad, uncertain.XTuple{ID: badID, Dist: uncertain.Certain(1)})
		if _, err := base.Extend(bad); err == nil {
			t.Fatalf("a tail ending in ID %d after %d was accepted", badID, bad[len(bad)-2].ID)
		}
		if d := sameBase(base, snap); d != "" || len(base.rel) != 11 {
			t.Fatalf("the rejected tail changed the base: %s", d)
		}
	}
	retry, err := base.Extend(rel[:18])
	if err != nil {
		t.Fatal(err)
	}
	check(t, "retry after a rejected tail", retry, rel[:18], oracle, BoundIndependent)
	if _, err := retry.Extend(rel[:17]); err == nil {
		t.Fatal("extending to a shorter relation succeeded")
	}
}
