package core

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/everest-project/everest/internal/simclock"
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

// TestPsiOrderMatchesStableSort: the lazily popped ψ heap — read part
// of the way, then from the start again to the end — yields exactly a
// stable sort's order over ascending positions, on ties, +Inf ψ and
// all-equal ψ.
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
			s := &selector{order: make([]psiEntry, len(want))}
			for _, e := range want {
				s.place(e)
			}
			s.heapify()
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
	for pos, live := range s.e.live {
		if live {
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
	b := min(e.cfg.batch(), e.nLive)
	var h batchHeap
	examined := 0
	for i, pos := range s.order {
		if !e.live[pos] {
			continue
		}
		if !e.cfg.DisableEarlyStop && len(h) == b && base+gamma*s.psi[i] <= h[0].e {
			for _, rest := range s.order[i:] {
				if e.live[rest] {
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
// selector and returns every batch it picked.
func drive(t *testing.T, e *Engine, pick func() []int) [][]int {
	t.Helper()
	if err := e.bootstrap(); err != nil {
		t.Fatal(err)
	}
	var batches [][]int
	for {
		sk, _ := e.thresholds()
		if e.prob.Prob(sk) >= e.cfg.Threshold || e.nLive == 0 {
			return batches
		}
		batch := pick()
		if len(batch) == 0 {
			return batches
		}
		batches = append(batches, batch)
		if err := e.clean(batch); err != nil {
			t.Fatal(err)
		}
		e.stats.Iterations++
	}
}

// TestSelectorMatchesReference: the lazy ψ heap picks the batches the
// full stable sort picked, with the same Examined, Pruned and Resorts
// and the same select charges, under both bounds, every re-sort
// schedule (including runs past the 100th iteration) and with early
// stop on and off.
func TestSelectorMatchesReference(t *testing.T) {
	configs := []Config{
		{K: 1, Threshold: 0.95, BatchSize: 1},
		{K: 4, Threshold: 0.95, BatchSize: 3},
		{K: 10, Threshold: 1, BatchSize: 1},
		{K: 4, Threshold: 0.95, BatchSize: 2, ResortOnce: true},
		{K: 4, Threshold: 0.95, BatchSize: 2, DisableEarlyStop: true},
	}
	longest := 0
	for _, bound := range []BoundKind{BoundIndependent, BoundUnion} {
		for seed := uint64(0); seed < 6; seed++ {
			for ci, cfg := range configs {
				cfg.Bound = bound
				r := xrand.New(400 + seed)
				rel, oracle := randomRelation(r, 150+r.Intn(300), 10, 6, 12)
				got, err := newEngine(rel, cfg, oracle, simclock.NewClock(), simclock.Default())
				if err != nil {
					t.Fatal(err)
				}
				want, err := newEngine(rel, cfg, oracle, simclock.NewClock(), simclock.Default())
				if err != nil {
					t.Fatal(err)
				}
				ref := &referenceSelector{e: want}
				gotBatches := drive(t, got, got.sel.selectBatch)
				wantBatches := drive(t, want, ref.selectBatch)
				if !reflect.DeepEqual(gotBatches, wantBatches) || got.stats != want.stats ||
					math.Float64bits(got.clock.TotalMS()) != math.Float64bits(want.clock.TotalMS()) {
					t.Fatalf("bound %v seed %d config %d: heap %d batches %+v, reference %d batches %+v",
						bound, seed, ci, len(gotBatches), got.stats, len(wantBatches), want.stats)
				}
				longest = max(longest, got.stats.Iterations)
			}
		}
	}
	if longest <= 100 {
		t.Fatalf("no run passed 100 iterations (longest %d): the change-driven re-sort schedule went untested", longest)
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
