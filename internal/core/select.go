package core

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
)

// selector implements Select-candidate (§3.3.2): it picks, per iteration,
// the batch of uncertain frames whose cleaning maximizes the expected
// next-round confidence E[X_f] (Eq. 4–6). Frames are examined in
// descending order of the sort-factor ψ_j(f) = (1 − F_f(S_kj)) / F_f(S_pj)
// computed at an earlier iteration j; since S_k and S_p only grow, ψ_j is
// an upper-bound surrogate (Eq. 8) and the scan stops early once
// p̂ + γ·ψ_j(f) cannot beat the batch's current worst E (Eq. 7).
//
// Re-sort schedule (paper §3.3.2): during the first 100 iterations ψ is
// recomputed every 10 iterations; afterwards it is recomputed whenever S_k
// or S_p changes.
//
// A re-sort does not sort, and does not visit every live frame: a frame
// whose top level is at most S_k has ψ = 0, so it walks only the
// prepared base's top-level buckets above S_k (and the overridden
// positions, whose run distribution the buckets do not index) and
// heapifies the entries with ψ > 0 in O(n); a scan pops the heap only as
// far as it reaches, a few dozen entries when the bound prunes early.
// The ψ = 0 frames follow the heap in position order, which is their
// stable order already; they are listed only when a scan first runs
// past the heap, once per sort epoch.
type selector struct {
	e *Engine

	// order holds the current sort epoch's scan order. Its first
	// positive entries are the live positions with ψ > 0 at the last
	// re-sort: order[:heapLen] is a max-heap over (ψ descending,
	// position ascending), order[heapLen:positive] holds the entries
	// popped from it, the first popped last. Behind them, once zeros is
	// set, come the ψ = 0 entries (frames that cannot reach S_k) in
	// ascending position. Read from positive−1 backwards, popping on
	// reaching the heap, and then order[positive:], it is the order a
	// stable sort by ψ gives (ties in ascending position, which is
	// ascending ID).
	order    []psiEntry
	heapLen  int
	positive int
	zeros    bool
	sorted   bool

	lastSortIter int
	sortSk       int
	sortSp       int

	heap batchHeap // selectBatch scratch, reused across iterations
}

func newSelector(e *Engine) *selector {
	return &selector{e: e}
}

// needResort applies the paper's lazy re-sort schedule.
func (s *selector) needResort(sk, sp int) bool {
	if !s.sorted {
		return true
	}
	if s.e.cfg.ResortOnce {
		return false
	}
	iter := s.e.stats.Iterations
	if iter < 100 {
		return iter-s.lastSortIter >= 10
	}
	return sk != s.sortSk || sp != s.sortSp
}

// psiOf computes the sort factor at threshold levels (sk, sp).
//
// Independent bound (Eq. 7): ψ(f) = (1 − F_f(S_k)) / F_f(S_p), and
// E[X_f] ≤ p̂ + γ·ψ(f) with γ = H(S_p)/Π F(S_p).
//
// Union bound: the analogous derivation gives E[X_f] ≤ (1 − T(S_p)) +
// (1 − F_f(S_k)) because T_excl_f(t) ≥ T(S_p) − (1 − F_f(S_k)) for every
// threshold t ≤ S_p the cleaning can produce, so ψ(f) = 1 − F_f(S_k)
// with base Prob(S_p) and γ = 1. In both modes ψ computed at an earlier
// iteration j over-estimates the current ψ (S_k and S_p only grow), so a
// stale sort order still yields a sound early-stop bound (Eq. 8).
func psiOf(d uncertain.Dist, sk, sp int, bound BoundKind) float64 {
	num := 1 - d.CDF(sk)
	if num <= 0 {
		return 0
	}
	if bound == BoundUnion {
		return num
	}
	var den float64
	if sp == noPenultimate {
		den = 1
	} else {
		den = d.CDF(sp)
	}
	if den == 0 {
		return math.Inf(1)
	}
	return num / den
}

// resort starts a sort epoch at thresholds (sk, sp): it heapifies the
// live positions with ψ > 0, reading the base's buckets above sk —
// skipping positions cleaned or overridden since the base was prepared
// — and the overridden live positions. Its scratch holds those
// candidates, never more than nLive: the buckets also count base tuples
// a cleaning or an override made certain.
func (s *selector) resort(sk, sp int) {
	e := s.e
	above := e.base.above(sk)
	n := e.marked.count()
	for _, bucket := range above {
		n += len(bucket)
	}
	if n = min(n, e.nLive); cap(s.order) < n {
		s.order = make([]psiEntry, 0, n)
	}
	s.order = s.order[:0]
	for _, bucket := range above {
		for _, pos := range bucket {
			if e.live.has(int(pos)) && !e.marked.has(int(pos)) {
				s.add(int(pos), sk, sp)
			}
		}
	}
	for w, word := range e.marked {
		for ; word != 0; word &= word - 1 {
			if pos := w*64 + bits.TrailingZeros64(word); e.live.has(pos) {
				s.add(pos, sk, sp)
			}
		}
	}
	s.positive, s.zeros = len(s.order), false
	s.heapify()
	s.sorted = true
	s.lastSortIter = e.stats.Iterations
	s.sortSk, s.sortSp = sk, sp
	e.stats.Resorts++
}

// add enters the live position pos into a re-sort's heap when its ψ is
// positive.
func (s *selector) add(pos, sk, sp int) {
	if psi := psiOf(s.e.rel[pos].Dist, sk, sp, s.e.cfg.Bound); psi > 0 {
		s.order = append(s.order, psiEntry{psi: psi, pos: pos})
	}
}

// appendZeros lists the epoch's ψ = 0 entries behind the heap, in
// ascending position: every live position the re-sort left out. A scan
// calls it when it first runs past the heap — a batch larger than the
// positive entries still live, or early stop off — and later scans of
// the epoch read the list again instead of walking the relation.
func (s *selector) appendZeros() {
	e := s.e
	// Every live position is in the heap or in the tail: the tail is
	// the live ones less those the heap still holds, and grows once.
	zeros := e.nLive
	for _, it := range s.order[:s.positive] {
		if e.live.has(it.pos) {
			zeros--
		}
	}
	s.order = slices.Grow(s.order, zeros)
	for w, word := range e.live {
		for ; word != 0; word &= word - 1 {
			pos := w*64 + bits.TrailingZeros64(word)
			psi := 0.0
			if d := e.rel[pos].Dist; d.Max() > s.sortSk {
				psi = psiOf(d, s.sortSk, s.sortSp, e.cfg.Bound)
			}
			if !(psi > 0) {
				s.order = append(s.order, psiEntry{psi: psi, pos: pos})
			}
		}
	}
	s.zeros = true
}

// psiEntry is an uncertain position with its sort factor ψ.
type psiEntry struct {
	psi float64
	pos int
}

// before reports whether a comes before b in the scan order. Positions
// are distinct, so the order is total and a heap pops it exactly.
func (a psiEntry) before(b psiEntry) bool {
	if a.psi != b.psi {
		return a.psi > b.psi
	}
	return a.pos < b.pos
}

// heapify turns the re-sort's entries into the scan order's start
// state: all of them the heap, nothing popped.
func (s *selector) heapify() {
	s.heapLen = s.positive
	for i := s.heapLen/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// siftDown restores the heap property below i.
func (s *selector) siftDown(i int) {
	h := s.order[:s.heapLen]
	for {
		first := i
		if l := 2*i + 1; l < len(h) && h[l].before(h[first]) {
			first = l
		}
		if r := 2*i + 2; r < len(h) && h[r].before(h[first]) {
			first = r
		}
		if first == i {
			return
		}
		h[i], h[first] = h[first], h[i]
		i = first
	}
}

// at returns the j-th entry of the scan order, popping the heap as far
// as that: the j-th pop lands at order[positive-1-j].
func (s *selector) at(j int) psiEntry {
	if j >= s.positive {
		return s.order[j]
	}
	slot := s.positive - 1 - j
	for s.heapLen > slot {
		s.heapLen--
		s.order[0], s.order[s.heapLen] = s.order[s.heapLen], s.order[0]
		s.siftDown(0)
	}
	return s.order[slot]
}

// expectedConfidence evaluates E[X_f] (Eq. 6) for the uncertain tuple with
// distribution d, at current thresholds (sk, sp), using the engine's
// no-exceed accumulator with f's own factor excluded (robust form of
// Eq. 5; see JointCDF.AtExcluding / TailSum.AtExcluding). Under
// BoundUnion the same three cases apply with the Bonferroni lower bound
// in place of the exact product.
func (s *selector) expectedConfidence(d uncertain.Dist, sk, sp int) float64 {
	pr := s.e.prob
	// Case s <= S_k: result and threshold unchanged; only f's uncertainty
	// is discounted. Mass F_f(S_k) at value Π_{others} F(S_k).
	e := d.CDF(sk) * pr.ProbExcluding(d, sk)
	// Case S_k < s <= S_p: f becomes the new threshold frame with score s.
	hiS := sp
	if hiS == noPenultimate || hiS > d.Max() {
		hiS = d.Max()
	}
	for lvl := max(sk+1, d.Min); lvl <= hiS; lvl++ {
		p := d.Pr(lvl)
		if p == 0 {
			continue
		}
		e += p * pr.ProbExcluding(d, lvl)
	}
	// Case s > S_p: the old penultimate becomes the threshold frame.
	if sp != noPenultimate {
		tail := 1 - d.CDF(sp)
		if tail > 0 {
			e += tail * pr.ProbExcluding(d, sp)
		}
	}
	return e
}

// batchItem is a candidate retained for the current batch. pos is a
// stable slot identifier in [0, b): replacements inherit the evicted
// item's slot, which makes the heap's eviction choice — smallest E, then
// smallest slot — coincide exactly with the old linear scan that replaced
// the first minimum in a position-ordered slice.
type batchItem struct {
	id  int
	e   float64
	pos int
}

// batchHeap is a min-heap of batch candidates ordered by (e, pos), so the
// root is the current batch's worst member.
type batchHeap []batchItem

func (h batchHeap) less(a, b int) bool {
	if h[a].e != h[b].e {
		return h[a].e < h[b].e
	}
	return h[a].pos < h[b].pos
}

func (h batchHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h batchHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// selectBatch returns up to cfg.BatchSize uncertain tuple IDs with the
// highest E[X_f]. It returns an empty slice when no uncertain tuples
// remain.
func (s *selector) selectBatch() []int {
	e := s.e
	if e.nLive == 0 {
		return nil
	}
	sk, sp := e.thresholds()
	if s.needResort(sk, sp) {
		s.resort(sk, sp)
	}
	// base + γ·ψ is the early-stop upper bound on E[X_f]; see psiOf for
	// the per-mode derivation.
	var base, gamma float64
	if e.cfg.Bound == BoundUnion {
		if sp == noPenultimate {
			base = 1
		} else {
			base = e.prob.Prob(sp)
		}
		gamma = 1
	} else {
		base = e.prob.Prob(sk)
		if sp == noPenultimate {
			gamma = 1
		} else {
			gamma = e.prob.Prob(sp)
		}
	}

	b := min(e.cfg.BatchSize, e.nLive)
	// The running batch is a min-heap over (E, slot): peeking the worst
	// member and replacing it are O(1)/O(log b) instead of the old O(b)
	// scans, and the heap storage is selector-owned scratch.
	if cap(s.heap) < b {
		s.heap = make(batchHeap, 0, b)
	}
	h := s.heap[:0]
	examined := 0
	for j := 0; ; j++ {
		if j == s.positive && !s.zeros {
			s.appendZeros()
		}
		if j == len(s.order) {
			break
		}
		it := s.at(j)
		if !e.live.has(it.pos) {
			continue // cleaned since the last re-sort
		}
		id, d := e.rel[it.pos].ID, e.rel[it.pos].Dist
		// ψ_j is stale (computed at an earlier, lower S_k/S_p) and
		// therefore an over-estimate: the bound is sound (Eq. 8).
		if !e.cfg.DisableEarlyStop && len(h) == b && base+gamma*it.psi <= h[0].e {
			// Every live position is in order, and this scan examined
			// each live one before this entry: the rest are pruned.
			e.stats.Pruned += e.nLive - examined
			break
		}
		examined++
		ev := s.expectedConfidence(d, sk, sp)
		switch {
		case len(h) < b:
			h = append(h, batchItem{id: id, e: ev, pos: len(h)})
			h.siftUp(len(h) - 1)
		case ev > h[0].e:
			h[0] = batchItem{id: id, e: ev, pos: h[0].pos}
			h.siftDown(0)
		}
	}
	s.heap = h
	e.stats.Examined += examined
	e.clock.Charge(simclock.PhaseSelect, float64(examined)*e.cost.SelectPerFrameMS)

	ids := make([]int, len(h))
	for i, it := range h {
		ids[i] = it.id
	}
	sort.Ints(ids) // deterministic oracle call order
	return ids
}
