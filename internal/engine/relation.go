package engine

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
	"sort"

	"github.com/everest-project/everest/internal/core"
	"github.com/everest-project/everest/internal/diffdet"
	"github.com/everest-project/everest/internal/labelstore"
	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/windows"
	"github.com/everest-project/everest/internal/workpool"
)

// D0 is built once per artifact, not once per query. Everything in it
// that depends only on Phase 1 — the certain tuple of a Phase 1 label,
// the quantized distribution of a mixture (with its CDF and log-CDF
// tables), what a window aggregates per segment — is the base, memoized
// on the artifact and extended over the tail after an Append. A query
// adds only its label overlay, under one precedence rule for a frame
// that has several scores:
//
//	Phase 1 label  >  cache label  >  proxy mixture
//
// A cache label on a Phase 1 frame is ignored: the index's own oracle
// label is what every query over the index, cached or not, agrees on.

// frameScores returns Phase 1's knowledge of every retained frame,
// indexed by frame (the zero FrameScore elsewhere), extending the
// memoized table over frames appended since it was built. It is where
// "every retained frame has a label or a mixture" is checked, for both
// relation builders. The caller holds a.mu; the returned table is never
// written again.
func (a *Artifact) frameScores() ([]windows.FrameScore, error) {
	if len(a.scores) == a.TotalFrames {
		return a.scores, nil
	}
	scores := make([]windows.FrameScore, a.TotalFrames)
	done := copy(scores, a.scores)
	// Retained is ascending, so the frames not yet covered are a suffix.
	tail := sort.Search(len(a.Retained), func(i int) bool { return int(a.Retained[i]) >= done })
	for _, f := range a.Retained[tail:] {
		if s, ok := a.Exact[f]; ok {
			scores[f] = windows.FrameScore{IsExact: true, Exact: s}
		} else if mix, ok := a.Mixtures[f]; ok {
			scores[f] = windows.FrameScore{Mix: mix}
		} else {
			return nil, fmt.Errorf("everest: index missing mixture for frame %d", f)
		}
	}
	a.scores = scores
	return scores, nil
}

// baseRelation returns the frame-level D0 before any label overlay —
// one tuple per retained frame, in Retained order — with the frame
// table it was built from. The memo holds one relation, for the
// quantization it was last asked for (an artifact is bound to one UDF,
// so a different qopt simply rebuilds); after an Append only the tail
// is quantized. Both are allocated at exact size and never written
// again once returned, so queries share them without copying the
// distributions. Rebuilding or extending d0 drops the prepared base
// (frameBase) made from it. The caller holds a.mu.
func (a *Artifact) baseRelation(qopt uncertain.QuantizeOptions) (uncertain.Relation, []windows.FrameScore, error) {
	scores, err := a.frameScores()
	if err != nil {
		return nil, nil, err
	}
	if a.d0Opt != qopt {
		a.d0, a.d0Opt = nil, qopt
	}
	if len(a.d0) == len(a.Retained) {
		return a.d0, scores, nil
	}
	a.d0Prep = nil
	rel := make(uncertain.Relation, len(a.Retained))
	done := copy(rel, a.d0)
	for i, f := range a.Retained[done:] {
		fs := scores[f]
		var d uncertain.Dist
		if fs.IsExact {
			d = certainAt(fs.Exact, qopt)
		} else if d, err = uncertain.Quantize(fs.Mix, qopt); err != nil {
			d = certainAt(fs.Mix.Mean(), qopt)
		}
		rel[done+i] = uncertain.XTuple{ID: int(f), Dist: d}
	}
	a.d0 = rel
	return rel, scores, nil
}

// frameBase returns the frame-level D0 prepared for Phase 2 under the
// given bound, with the relation it was prepared from and the frame
// table. The prepared base is memoized beside d0, keyed like it (the
// quantization, plus the bound), and is valid exactly as long as d0 is:
// it is dropped whenever d0 is rebuilt or extended, and prepared again
// by the next frame query — never by Append. Queries read it in place;
// none copies the relation.
func (a *Artifact) frameBase(qopt uncertain.QuantizeOptions, bound core.BoundKind) (*core.Base, uncertain.Relation, []windows.FrameScore, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	rel, scores, err := a.baseRelation(qopt)
	if err != nil {
		return nil, nil, nil, err
	}
	if a.d0Prep == nil || a.d0Bound != bound {
		if a.d0Prep, err = core.Prepare(rel, bound); err != nil {
			return nil, nil, nil, err
		}
		a.d0Bound = bound
	}
	return a.d0Prep, rel, scores, nil
}

// certainAt is the point mass at an exact (or stand-in) score's level.
func certainAt(score float64, qopt uncertain.QuantizeOptions) uncertain.Dist {
	return uncertain.Certain(phase1.ClampLevel(uncertain.LevelOf(score, qopt.Step), qopt))
}

// overrides enumerates the label overlay as overrides of D0, rel (in
// Retained order, which is ascending ID, as Prepare requires): for
// every cache label on a retained frame Phase 1 did not label — the
// precedence rule above — the frame's position in rel and the point
// mass at the label's level. It walks the overlay once, |labels|
// steps, each finding its frame by a search forward from the last one
// found (the snapshot's labels come in ascending frame order), so a
// label on a frame outside D0 (one the difference detector discarded,
// or one at or past the artifact's end) is never yielded. A nil overlay is the nil
// enumeration: the run starts as an uncached one.
func overrides(labels *labelstore.Overlay, rel uncertain.Relation, scores []windows.FrameScore, qopt uncertain.QuantizeOptions) iter.Seq2[int, uncertain.Dist] {
	if labels == nil {
		return nil
	}
	return func(yield func(int, uncertain.Dist) bool) {
		next := 0
		labels.Range(func(f int, s float64) bool {
			if f < 0 || f >= len(scores) || scores[f].IsExact {
				return true
			}
			pos, ok := positionFrom(rel, next, f)
			next = pos
			return !ok || yield(pos, certainAt(s, qopt))
		})
	}
}

// positionFrom returns the position of the tuple with the given ID in
// rel (ascending ID), or where it would be, searching forward from
// position from in doubling steps and then by bisection: O(log of the
// distance) when the IDs asked for ascend. An ID below rel[from]'s is
// searched for from the start.
func positionFrom(rel uncertain.Relation, from, id int) (int, bool) {
	lo := 0
	if from < len(rel) && rel[from].ID <= id {
		lo = from
	}
	// Every position below lo holds a smaller ID; hi is past the end or
	// holds an ID at least id.
	hi, step := lo, 1
	for hi < len(rel) && rel[hi].ID < id {
		lo, hi, step = hi+1, hi+step, 2*step
	}
	hi = min(hi, len(rel))
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rel[m].ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(rel) && rel[lo].ID == id
}

// FrameRelation builds the frame-level D0: a copy of the artifact's
// base relation in which every frame the overlay knows — and Phase 1
// did not label — is certain. labels, when non-nil, supplies exact
// scores confirmed by earlier queries over the same cache (session
// overlay, or the running overlay of a coalesced group). A nil overlay
// is the uncached path: every uncertain frame keeps its mixture. The
// returned slice is the caller's; the distributions in it are shared
// and immutable. Execute does not call it — it starts a run over the
// prepared base (frameBase) under the same overrides — but callers that
// want the relation itself do.
func (a *Artifact) FrameRelation(qopt uncertain.QuantizeOptions, labels *labelstore.Overlay) (uncertain.Relation, error) {
	a.mu.Lock()
	base, scores, err := a.baseRelation(qopt)
	a.mu.Unlock()
	if err != nil {
		return nil, err
	}
	rel := make(uncertain.Relation, len(base))
	copy(rel, base)
	if labels != nil {
		for pos, d := range overrides(labels, base, scores, qopt) {
			rel[pos].Dist = d
		}
	}
	return rel, nil
}

// The window memo is the same idea one level up: per window shape, the
// relation Eq. 9 gives with no overlay, built by the first query of the
// shape and extended over the new windows after an Append (a window
// that ends within the old frames reads only old frames and old
// representatives, so it is unchanged). A query then re-aggregates only
// the windows its overlay touches — those with a representative the
// overlay labels and Phase 1 did not — with the very function that
// built the memo, so every window is what a full build would give it.
// Every query starts from the memo's prepared base, the windows it
// touches (re-aggregated in its own copy) as the run's overrides.

// maxWindowShapes bounds the window memo: the most recently used shapes
// stay, the least recently used is dropped. No workload asks more than
// three shapes of one index.
const maxWindowShapes = 4

// windowKey identifies a memoized window relation: the shape, stride
// resolved, under one quantization.
type windowKey struct {
	size, stride int
	qopt         uncertain.QuantizeOptions
}

// windowD0 is one shape's memo entry. rel is every window aggregated
// with no overlay; failed lists the windows whose aggregation failed
// (their tuples are placeholders, and every query re-aggregates them,
// so its error is the lowest failing window under its own overlay);
// prep is rel prepared for Phase 2 under bound, nil until a query asks,
// and dropped when rel is extended. Guarded by
// the artifact's mu; a published tuple or failed entry is never written
// again (an extension appends past the ones a query may hold).
type windowD0 struct {
	key    windowKey
	rel    uncertain.Relation
	failed []int
	prep   *core.Base
	bound  core.BoundKind
}

// windowView is what one query reads of a memo entry, taken under a.mu:
// the entry's relation and failed windows, the frame table and segment
// structure they were built from, the span D, and the aggregation
// options (the query's workers).
type windowView struct {
	entry  *windowD0
	rel    uncertain.Relation
	failed []int
	scores []windows.FrameScore
	diff   diffdet.Result
	span   int
	opt    windows.Options
}

// windowMemo returns the view of the shape's memo entry, building the
// entry — on the given workers — if the shape is new, and extending it
// over the windows appended since it was built.
func (a *Artifact) windowMemo(w WindowSpec, qopt uncertain.QuantizeOptions, procs int, pool *workpool.Pool) (windowView, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	scores, err := a.frameScores()
	if err != nil {
		return windowView{}, err
	}
	key := windowKey{size: w.Size, stride: w.Stride, qopt: qopt}
	if key.stride <= 0 {
		key.stride = key.size
	}
	maxLevel := 0
	if qopt.MaxLevel > 0 && qopt.MaxLevel < math.MaxInt {
		maxLevel = qopt.MaxLevel
	}
	v := windowView{
		scores: scores,
		diff:   diffdet.Result{RepOf: a.RepOf},
		span:   a.repSpan(),
		opt:    windows.Options{Size: key.size, Stride: key.stride, Step: qopt.Step, MaxLevel: maxLevel, Procs: procs, Pool: pool},
	}
	e := a.windowEntry(key)
	fresh := e == nil
	if fresh {
		e = &windowD0{key: key}
	}
	if fresh || len(e.rel) < windows.NumSlidingWindows(a.TotalFrames, key.size, key.stride) {
		rel, failed, err := windows.Extend(e.rel, func(rep int) windows.FrameScore { return scores[rep] }, v.diff, v.opt)
		if err != nil {
			return windowView{}, err
		}
		e.rel, e.prep = rel, nil
		if len(failed) > 0 {
			e.failed = append(slices.Clip(e.failed), failed...)
		}
		if fresh {
			a.wins = append([]*windowD0{e}, a.wins[:min(len(a.wins), maxWindowShapes-1)]...)
		}
	}
	v.entry, v.rel, v.failed = e, e.rel, e.failed
	return v, nil
}

// windowEntry returns the memo entry for key, moved to the front of the
// recency order, or nil. The caller holds a.mu.
func (a *Artifact) windowEntry(key windowKey) *windowD0 {
	for i, e := range a.wins {
		if e.key == key {
			copy(a.wins[1:i+1], a.wins[:i])
			a.wins[0] = e
			return e
		}
	}
	return nil
}

// repSpan returns D = max |i − RepOf[i]|, the farthest any frame lies
// from its representative, extending the memoized value over frames
// appended since. The caller holds a.mu.
func (a *Artifact) repSpan() int {
	for i := a.spanN; i < len(a.RepOf); i++ {
		d := i - int(a.RepOf[i])
		a.span = max(a.span, d, -d)
	}
	a.spanN = len(a.RepOf)
	return a.span
}

// windowBase returns the view's relation prepared for Phase 2 under the
// given bound, memoized on its entry: the base every window query of the
// shape starts from, whatever windows its overlay touches.
func (a *Artifact) windowBase(v windowView, bound core.BoundKind) (*core.Base, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := v.entry
	if e.prep == nil || e.bound != bound {
		prep, err := core.Prepare(v.rel, bound)
		if err != nil {
			return nil, err
		}
		e.prep, e.bound = prep, bound
	}
	return e.prep, nil
}

// touched returns, ascending, the windows a query under labels must
// re-aggregate — nil when it can read the memo as it is. A window is
// touched when one of its representatives is labelled by the overlay
// and not by Phase 1 (the only way an overlay changes Eq. 9), and
// every failed window is touched. The overlay is walked, not the
// windows: each representative it labels marks the windows overlapping
// the frames it represents, found within ±D of it. Marking a window
// that did not change is harmless — re-aggregating it gives it back.
func (v windowView) touched(labels *labelstore.Overlay) []int {
	n := len(v.rel)
	var marks []uint64
	mark := func(lo, hi int) {
		if marks == nil {
			marks = make([]uint64, (n+63)/64)
		}
		for w := lo; w <= hi; w++ {
			marks[w>>6] |= 1 << (w & 63)
		}
	}
	for _, w := range v.failed {
		mark(w, w)
	}
	repOf, size, stride := v.diff.RepOf, v.opt.Size, v.opt.Stride
	labels.Range(func(f int, _ float64) bool {
		if f < 0 || f >= len(repOf) || int(repOf[f]) != f || v.scores[f].IsExact {
			return true
		}
		lo, hi := f, f
		for i := max(0, f-v.span); i < f; i++ {
			if int(repOf[i]) == f {
				lo = i
				break
			}
		}
		for i := min(len(repOf)-1, f+v.span); i > f; i-- {
			if int(repOf[i]) == f {
				hi = i
				break
			}
		}
		// Window w covers [w·stride, w·stride+size).
		first := 0
		if lo >= size {
			first = (lo-size)/stride + 1
		}
		if last := min(n-1, hi/stride); first <= last {
			mark(first, last)
		}
		return true
	})
	count := 0
	for _, m := range marks {
		count += bits.OnesCount64(m)
	}
	if count == 0 {
		return nil
	}
	ids := make([]int, 0, count)
	for i, m := range marks {
		for ; m != 0; m &= m - 1 {
			ids = append(ids, i<<6+bits.TrailingZeros64(m))
		}
	}
	return ids
}

// relation returns a copy of the view's relation with the windows ids
// re-aggregated under labels — Eq. 9 with the overlay's exact scores on
// the representatives it labels and Phase 1 did not.
func (v windowView) relation(ids []int, labels *labelstore.Overlay) (uncertain.Relation, error) {
	rel := make(uncertain.Relation, len(v.rel))
	copy(rel, v.rel)
	if len(ids) == 0 {
		return rel, nil
	}
	scores := v.scores
	err := windows.Reaggregate(rel, ids, func(rep int) windows.FrameScore {
		fs := scores[rep]
		if !fs.IsExact {
			if s, ok := labels.Get(rep); ok {
				return windows.FrameScore{IsExact: true, Exact: s}
			}
		}
		return fs
	}, v.diff, v.opt)
	if err != nil {
		return nil, err
	}
	return rel, nil
}

// WindowRelation builds the window-level D0 (Eq. 9): a copy of the
// shape's memoized relation with the windows the overlay touches
// re-aggregated — a window query's run relation whenever the overlay
// touches a window. labels, when non-nil, supplies exact scores
// confirmed by earlier queries over the same cache; it must not be
// mutated while this runs. procs and pool are the workers the shape's
// first build and the re-aggregation fan out on (nil pool: transient
// goroutines).
func (a *Artifact) WindowRelation(w WindowSpec, qopt uncertain.QuantizeOptions, labels *labelstore.Overlay, procs int, pool *workpool.Pool) (uncertain.Relation, error) {
	v, err := a.windowMemo(w, qopt, procs, pool)
	if err != nil {
		return nil, err
	}
	return v.relation(v.touched(labels), labels)
}
