package core

import (
	"fmt"
	"iter"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/xrand"
)

// referenceBatch is the pre-heap linear-scan batch keeper: a
// position-ordered slice where the first strict minimum is replaced. The
// heap must reproduce its final contents exactly, including under E ties.
type referenceBatch struct {
	b    int
	best []batchItem
}

func (r *referenceBatch) insert(id int, ev float64) {
	if len(r.best) < r.b {
		r.best = append(r.best, batchItem{id: id, e: ev})
		return
	}
	wi, wv := 0, r.best[0].e
	for i, it := range r.best[1:] {
		if it.e < wv {
			wi, wv = i+1, it.e
		}
	}
	if ev > wv {
		r.best[wi] = batchItem{id: id, e: ev}
	}
}

func (r *referenceBatch) worst() float64 {
	if len(r.best) < r.b {
		return -1
	}
	w := r.best[0].e
	for _, it := range r.best[1:] {
		if it.e < w {
			w = it.e
		}
	}
	return w
}

func heapInsert(h batchHeap, b, id int, ev float64) batchHeap {
	if len(h) < b {
		h = append(h, batchItem{id: id, e: ev, pos: len(h)})
		h.siftUp(len(h) - 1)
		return h
	}
	if ev > h[0].e {
		h[0] = batchItem{id: id, e: ev, pos: h[0].pos}
		h.siftDown(0)
	}
	return h
}

// TestBatchHeapMatchesLinearScan drives both batch keepers with random
// streams (coarse values force frequent ties) and requires identical
// worst-member tracking and identical final ID sets.
func TestBatchHeapMatchesLinearScan(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		b := 1 + r.Intn(12)
		n := 1 + r.Intn(200)
		ref := &referenceBatch{b: b}
		var h batchHeap
		for i := 0; i < n; i++ {
			// Values in {0, 0.25, …, 1.75} so ties are common.
			ev := float64(r.Intn(8)) * 0.25
			ref.insert(i, ev)
			h = heapInsert(h, b, i, ev)
			refWorst := ref.worst()
			heapWorst := -1.0
			if len(h) == b {
				heapWorst = h[0].e
			}
			if refWorst != heapWorst {
				return false
			}
		}
		refIDs := make([]int, len(ref.best))
		for i, it := range ref.best {
			refIDs[i] = it.id
		}
		heapIDs := make([]int, len(h))
		for i, it := range h {
			heapIDs[i] = it.id
		}
		sort.Ints(refIDs)
		sort.Ints(heapIDs)
		if len(refIDs) != len(heapIDs) {
			return false
		}
		for i := range refIDs {
			if refIDs[i] != heapIDs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPsiOrderMatchesStableSort: the lazily popped ψ heap, its ψ > 0
// entries heapified in any order and the ψ = 0 ones behind it in
// ascending position — read part of the way, then from the start again
// to the end — yields exactly a stable sort's order over ascending
// positions, on ties, +Inf ψ and all-equal ψ.
func TestPsiOrderMatchesStableSort(t *testing.T) {
	cases := map[string]func(r *xrand.RNG) float64{
		"distinct": func(r *xrand.RNG) float64 { return r.Float64() },
		"ties":     func(r *xrand.RNG) float64 { return float64(r.Intn(4)) / 4 },
		"with +Inf": func(r *xrand.RNG) float64 {
			if r.Intn(3) == 0 {
				return math.Inf(1)
			}
			return float64(r.Intn(3))
		},
		"all equal": func(*xrand.RNG) float64 { return 0.5 },
		"zeros and +Inf": func(r *xrand.RNG) float64 {
			return []float64{0, 0, 0.25, math.Inf(1)}[r.Intn(4)]
		},
		"all zero": func(*xrand.RNG) float64 { return 0 },
	}
	for name, draw := range cases {
		for seed := uint64(0); seed < 40; seed++ {
			r := xrand.New(seed)
			var want []psiEntry
			for pos, n := 0, r.Intn(80); pos < n; pos++ {
				if r.Intn(4) == 0 {
					continue // positions need not be dense
				}
				want = append(want, psiEntry{psi: draw(r), pos: pos})
			}
			s := &selector{}
			for _, e := range want {
				if e.psi > 0 {
					s.order = append(s.order, e)
				}
			}
			for i := len(s.order) - 1; i > 0; i-- {
				j := r.Intn(i + 1)
				s.order[i], s.order[j] = s.order[j], s.order[i]
			}
			s.positive = len(s.order)
			s.heapify()
			for _, e := range want {
				if e.psi == 0 {
					s.order = append(s.order, e)
				}
			}
			sort.SliceStable(want, func(a, b int) bool { return want[a].psi > want[b].psi })
			for j, partial := 0, r.Intn(len(want)+1); j < partial; j++ {
				s.at(j)
			}
			for j := range want {
				if got := s.at(j); got != want[j] {
					t.Fatalf("%s, seed %d: entry %d is %+v, stable sort has %+v", name, seed, j, got, want[j])
				}
			}
		}
	}
}

// referenceSelector is the selector before the lazy ψ heap, kept as the
// reference: each re-sort stably sorts every live position by ψ, a scan
// walks the sorted order, and the pruned count walks the rest of it.
type referenceSelector struct {
	e            *Engine
	order        []int
	psi          []float64
	sorted       bool
	lastSortIter int
	sortSk       int
	sortSp       int
}

func (s *referenceSelector) needResort(sk, sp int) bool {
	if !s.sorted {
		return true
	}
	if s.e.cfg.ResortOnce {
		return false
	}
	if iter := s.e.stats.Iterations; iter < 100 {
		return iter-s.lastSortIter >= 10
	}
	return sk != s.sortSk || sp != s.sortSp
}

func (s *referenceSelector) resort(sk, sp int) {
	s.order, s.psi = s.order[:0], s.psi[:0]
	for pos := range s.e.rel {
		if s.e.live.has(pos) {
			s.order = append(s.order, pos)
			s.psi = append(s.psi, psiOf(s.e.rel[pos].Dist, sk, sp, s.e.cfg.Bound))
		}
	}
	sort.Stable(psiSorter{s.order, s.psi})
	s.sorted = true
	s.lastSortIter = s.e.stats.Iterations
	s.sortSk, s.sortSp = sk, sp
	s.e.stats.Resorts++
}

type psiSorter struct {
	order []int
	psi   []float64
}

func (p psiSorter) Len() int           { return len(p.order) }
func (p psiSorter) Less(a, b int) bool { return p.psi[a] > p.psi[b] }
func (p psiSorter) Swap(a, b int) {
	p.order[a], p.order[b] = p.order[b], p.order[a]
	p.psi[a], p.psi[b] = p.psi[b], p.psi[a]
}

func (s *referenceSelector) selectBatch() []int {
	e := s.e
	if e.nLive == 0 {
		return nil
	}
	sk, sp := e.thresholds()
	if s.needResort(sk, sp) {
		s.resort(sk, sp)
	}
	var base, gamma float64
	if e.cfg.Bound == BoundUnion {
		base, gamma = 1, 1
		if sp != noPenultimate {
			base = e.prob.Prob(sp)
		}
	} else {
		base, gamma = e.prob.Prob(sk), 1
		if sp != noPenultimate {
			gamma = e.prob.Prob(sp)
		}
	}
	b := min(e.cfg.BatchSize, e.nLive)
	var h batchHeap
	examined := 0
	for i, pos := range s.order {
		if !e.live.has(pos) {
			continue
		}
		if !e.cfg.DisableEarlyStop && len(h) == b && base+gamma*s.psi[i] <= h[0].e {
			for _, rest := range s.order[i:] {
				if e.live.has(rest) {
					e.stats.Pruned++
				}
			}
			break
		}
		examined++
		h = heapInsert(h, b, e.rel[pos].ID, s.e.sel.expectedConfidence(e.rel[pos].Dist, sk, sp))
	}
	e.stats.Examined += examined
	e.clock.Charge(simclock.PhaseSelect, float64(examined)*e.cost.SelectPerFrameMS)
	ids := make([]int, len(h))
	for i, it := range h {
		ids[i] = it.id
	}
	sort.Ints(ids)
	return ids
}

// drive runs Engine.Run's select-and-clean loop with pick as the
// selector and returns every batch it picked, and the error that ended
// the loop.
func drive(e *Engine, pick func() []int) ([][]int, error) {
	if err := e.bootstrap(); err != nil {
		return nil, err
	}
	var batches [][]int
	for {
		sk, _ := e.thresholds()
		if e.prob.Prob(sk) >= e.cfg.Threshold || e.nLive == 0 {
			return batches, nil
		}
		batch := pick()
		if len(batch) == 0 {
			return batches, nil
		}
		batches = append(batches, batch)
		if err := e.clean(batch); err != nil {
			return batches, err
		}
		e.stats.Iterations++
	}
}

// againstReference starts two runs with start, drives one with the
// selector — calling watch, when non-nil, after each of its batches —
// and the other with referenceSelector, and returns the selector's
// engine and how the two differ: "" when they pick the same batches,
// end alike and agree on the stats and the select charges.
func againstReference(t *testing.T, start func(clock *simclock.Clock) (*Engine, error), watch func(*selector)) (*Engine, string) {
	t.Helper()
	got, err := start(simclock.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	want, err := start(simclock.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	gotBatches, gotErr := drive(got, func() []int {
		batch := got.sel.selectBatch()
		if watch != nil {
			watch(got.sel)
		}
		return batch
	})
	ref := &referenceSelector{e: want}
	wantBatches, wantErr := drive(want, ref.selectBatch)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(gotBatches, wantBatches) || got.stats != want.stats ||
		math.Float64bits(got.clock.TotalMS()) != math.Float64bits(want.clock.TotalMS()) {
		return got, fmt.Sprintf("selector %d batches %+v (%v), reference %d batches %+v (%v)",
			len(gotBatches), got.stats, gotErr, len(wantBatches), want.stats, wantErr)
	}
	return got, ""
}

// selectorStart is a run to compare the selector on: a prepared base
// and, for Base.Start, the run relation and overrides.
type selectorStart struct {
	base   *Base
	rel    uncertain.Relation
	over   iter.Seq2[int, uncertain.Dist]
	oracle Oracle
}

// viewStart is the start of a run over base under viewsFor's view of
// the given name.
func viewStart(r *xrand.RNG, base *Base, oracle Oracle, name string) selectorStart {
	v := viewsFor(r, base.rel)[name]
	mat := materialize(base.rel, v)
	s := selectorStart{base: base, over: enumerate(mat, v, nil), oracle: oracle}
	if v.uncertainIn() {
		s.rel = mat
	}
	return s
}

// extendedTwice prepares the first third of a relation of mixed certain
// and uncertain tuples, some levels negative, and extends it twice.
func extendedTwice(t *testing.T, r *xrand.RNG, bound BoundKind) (*Base, *trueWorldOracle) {
	t.Helper()
	n := 150 + r.Intn(300)
	rel, oracle := mixedRelation(r, n, 0.2, -8)
	b, err := Prepare(rel[:n/3], bound)
	for _, cut := range []int{2 * n / 3, n} {
		if err == nil {
			b, err = b.Extend(rel[:cut])
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if b.lo >= 0 {
		t.Fatalf("the relation's levels start at %d, want some negative", b.lo)
	}
	return b, oracle
}

// TestSelectorMatchesReference: the lazy ψ heap picks the batches the
// full stable sort picked, with the same Examined, Pruned and Resorts
// and the same select charges, under both bounds, every re-sort
// schedule (including runs past the 100th iteration), with early stop on
// and off, and with batches larger than the frames that can still beat
// S_k, whose ψ = 0 tail the scan then reads. The runs start:
//   - on a freshly prepared base;
//   - on one where a third of the tuples have a top level of vanishing
//     mass, so that their ψ rounds to 0 above S_k;
//   - through Base.Start under certain and uncertain overrides, base
//     certain tuples among them made live;
//   - on a base prepared over a third of a relation with negative levels
//     and extended twice, with and without overrides.
func TestSelectorMatchesReference(t *testing.T) {
	configs := []Config{
		{K: 1, Threshold: 0.95, BatchSize: 1},
		{K: 4, Threshold: 0.95, BatchSize: 3},
		{K: 10, Threshold: 1, BatchSize: 1},
		{K: 4, Threshold: 0.95, BatchSize: 2, ResortOnce: true},
		{K: 4, Threshold: 0.95, BatchSize: 2, DisableEarlyStop: true},
		{K: 4, Threshold: 0.95, BatchSize: 48},
	}
	fresh := func(t *testing.T, r *xrand.RNG, bound BoundKind) selectorStart {
		rel, oracle := randomRelation(r, 150+r.Intn(300), 10, 6, 12)
		b, err := Prepare(rel, bound)
		if err != nil {
			t.Fatal(err)
		}
		return selectorStart{base: b, oracle: oracle}
	}
	overridden := func(name string) func(*testing.T, *xrand.RNG, BoundKind) selectorStart {
		return func(t *testing.T, r *xrand.RNG, bound BoundKind) selectorStart {
			rel, oracle := mixedRelation(r, 150+r.Intn(300), 0.2, 0)
			b, err := Prepare(rel, bound)
			if err != nil {
				t.Fatal(err)
			}
			return viewStart(r, b, oracle, name)
		}
	}
	starts := []struct {
		name  string
		seeds uint64
		make  func(*testing.T, *xrand.RNG, BoundKind) selectorStart
	}{
		{"fresh base", 6, fresh},
		{"certain overrides", 3, overridden("base top certain demoted, some uncertain")},
		{"live tuples re-distributed", 3, overridden("live tuples re-distributed")},
		{"base certain made live", 3, overridden("base certain made uncertain")},
		{"top levels of vanishing mass", 3, func(t *testing.T, r *xrand.RNG, bound BoundKind) selectorStart {
			s := fresh(t, r, bound)
			rel := slices.Clone(s.base.rel)
			for i, x := range rel {
				if !x.Dist.IsCertain() && i%3 == 0 {
					rel[i].Dist = mustDist(x.Dist.Min, []float64{1, 1, 1e-20})
				}
			}
			b, err := Prepare(rel, bound)
			if err != nil {
				t.Fatal(err)
			}
			return selectorStart{base: b, oracle: s.oracle}
		}},
		{"extended twice", 3, func(t *testing.T, r *xrand.RNG, bound BoundKind) selectorStart {
			b, oracle := extendedTwice(t, r, bound)
			return selectorStart{base: b, oracle: oracle}
		}},
		{"extended twice, overridden", 3, func(t *testing.T, r *xrand.RNG, bound BoundKind) selectorStart {
			b, oracle := extendedTwice(t, r, bound)
			return viewStart(r, b, oracle, "mixed, as a window overlay")
		}},
	}
	longest := 0
	var zeroTail, heapOnly bool
	watch := func(s *selector) {
		if s.zeros && !s.e.cfg.DisableEarlyStop {
			zeroTail = true
		} else if !s.zeros {
			heapOnly = true
		}
	}
	for _, st := range starts {
		for _, bound := range []BoundKind{BoundIndependent, BoundUnion} {
			for seed := uint64(0); seed < st.seeds; seed++ {
				for ci, cfg := range configs {
					cfg.Bound = bound
					s := st.make(t, xrand.New(400+seed), bound)
					got, diff := againstReference(t, func(clock *simclock.Clock) (*Engine, error) {
						return s.base.Start(cfg, s.rel, s.over, s.oracle, clock, simclock.Default())
					}, watch)
					if diff != "" {
						t.Fatalf("%s, bound %v seed %d config %d: %s", st.name, bound, seed, ci, diff)
					}
					longest = max(longest, got.stats.Iterations)
				}
			}
		}
	}
	if longest <= 100 {
		t.Fatalf("no run passed 100 iterations (longest %d): the change-driven re-sort schedule went untested", longest)
	}
	if !zeroTail || !heapOnly {
		t.Fatalf("a scan with early stop read the ψ = 0 tail: %v; a scan stayed in the heap: %v — want both", zeroTail, heapOnly)
	}
}

// TestSelectBatchScratchReuse pins the allocation discipline: repeated
// selectBatch calls on a warm selector reuse the heap and sort scratch.
func TestSelectBatchScratchReuse(t *testing.T) {
	r := xrand.New(5)
	rel, oracle := randomRelation(r, 5000, 100, 5, 12)
	e, err := newEngine(rel, Config{K: 20, Threshold: 0.9, BatchSize: 8}, oracle, nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	first := e.sel.selectBatch()
	if len(first) == 0 {
		t.Fatal("no batch selected")
	}
	// Warm path: no resort (schedule says reuse), heap reused → the only
	// allocation left is the returned ID slice.
	allocs := testing.AllocsPerRun(20, func() {
		_ = e.sel.selectBatch()
	})
	if allocs > 2 {
		t.Fatalf("selectBatch allocates %v objects per warm call, want ≤ 2", allocs)
	}
}

// TestResortScratchBoundedByCandidates: a re-sort's scratch holds an
// entry per live tuple that can still beat S_k — one whose top level
// exceeds it — not one per live tuple; under overrides that made most
// of those certain, it holds no more entries than there are live
// tuples. A scan that runs past the heap lists the ψ = 0 tail once per
// sort epoch: a later scan of the epoch reads it again without
// allocating.
func TestResortScratchBoundedByCandidates(t *testing.T) {
	const nCertain, nHigh, nLow = 30, 40, 2000
	var rel uncertain.Relation
	oracle := &trueWorldOracle{levels: map[int]int{}}
	for id := range nCertain + nHigh + nLow {
		d := uncertain.Certain(10)
		switch {
		case id >= nCertain+nHigh:
			d = mustDist(0, []float64{1, 1, 1, 1})
		case id >= nCertain:
			d = mustDist(8, []float64{1, 1, 1, 1, 1, 1})
		}
		rel = append(rel, uncertain.XTuple{ID: id, Dist: d})
		oracle.levels[id] = d.Min
	}
	b, err := Prepare(rel, BoundIndependent)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 10, Threshold: 0.9, BatchSize: 8}
	start := func(cfg Config, over iter.Seq2[int, uncertain.Dist]) *Engine {
		e, err := b.Start(cfg, nil, over, oracle, nil, simclock.Default())
		if err != nil {
			t.Fatal(err)
		}
		sk, sp := e.thresholds()
		if sk != 10 {
			t.Fatalf("S_k is %d, want 10", sk)
		}
		e.sel.resort(sk, sp)
		return e
	}

	e := start(cfg, nil)
	if got := cap(e.sel.order); got > nHigh {
		t.Fatalf("a re-sort of %d live tuples, %d of them above S_k, kept scratch for %d entries", e.nLive, nHigh, got)
	}

	// Certain overrides of all but 5 of the high tuples and all but 10 of
	// the low ones: the buckets above S_k still list nHigh positions.
	var over []overridePair
	for pos := nCertain; pos < len(rel); pos++ {
		if keep := pos < nCertain+5 || pos >= len(rel)-10; !keep {
			over = append(over, overridePair{pos, uncertain.Certain(0)})
		}
	}
	e = start(cfg, pairs(over...))
	if got := cap(e.sel.order); e.nLive != 15 || got > e.nLive {
		t.Fatalf("a re-sort of %d live tuples under overrides kept scratch for %d entries", e.nLive, got)
	}

	cfg.BatchSize, cfg.ResortOnce = 64, true
	e = start(cfg, nil)
	if len(e.sel.selectBatch()) == 0 || !e.sel.zeros {
		t.Fatal("a batch of 64 over at most 40 positive entries did not read the ψ = 0 tail")
	}
	// Mark the last listed entry: a scan that listed the tail afresh
	// would overwrite it.
	listed := len(e.sel.order)
	e.sel.order[listed-1].psi = -1
	if allocs := testing.AllocsPerRun(5, func() { _ = e.sel.selectBatch() }); allocs > 1 || len(e.sel.order) != listed {
		t.Fatalf("a later scan of the epoch allocated %v objects and left %d entries listed, want ≤ 1 and %d", allocs, len(e.sel.order), listed)
	}
	if e.sel.order[listed-1].psi != -1 {
		t.Fatal("a later scan of the epoch listed the ψ = 0 tail again")
	}
}
