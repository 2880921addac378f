package engine

import (
	"fmt"
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
// given bound, with the frame table. The prepared base is memoized
// beside d0, keyed like it (the quantization, plus the bound), and is
// valid exactly as long as d0 is: it is dropped whenever d0 is rebuilt
// or extended, and prepared again by the next frame query — never by
// Append. Queries read it in place; none copies the relation.
func (a *Artifact) frameBase(qopt uncertain.QuantizeOptions, bound core.BoundKind) (*core.Base, []windows.FrameScore, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	rel, scores, err := a.baseRelation(qopt)
	if err != nil {
		return nil, nil, err
	}
	if a.d0Prep == nil || a.d0Bound != bound {
		if a.d0Prep, err = core.Prepare(rel, bound); err != nil {
			return nil, nil, err
		}
		a.d0Bound = bound
	}
	return a.d0Prep, scores, nil
}

// levelAt is the clamped level of an exact (or stand-in) score.
func levelAt(score float64, qopt uncertain.QuantizeOptions) int {
	return phase1.ClampLevel(uncertain.LevelOf(score, qopt.Step), qopt)
}

// certainAt is the point-mass tuple of an exact (or stand-in) score.
func certainAt(score float64, qopt uncertain.QuantizeOptions) uncertain.Dist {
	return uncertain.Certain(levelAt(score, qopt))
}

// overlayView is the label overlay as a view over D0: the level of a
// cache label on a frame Phase 1 did not label — the precedence rule
// above. A nil overlay is the nil view.
func overlayView(labels *labelstore.Overlay, scores []windows.FrameScore, qopt uncertain.QuantizeOptions) func(id int) (int, bool) {
	if labels == nil {
		return nil
	}
	return func(id int) (int, bool) {
		if scores[id].IsExact {
			return 0, false
		}
		s, ok := labels.Get(id)
		if !ok {
			return 0, false
		}
		return levelAt(s, qopt), true
	}
}

// FrameRelation builds the frame-level D0: a copy of the artifact's
// base relation in which every frame the overlay knows — and Phase 1
// did not label — is certain. labels, when non-nil, supplies exact
// scores confirmed by earlier queries over the same cache (session
// overlay, or the running overlay of a coalesced group). A nil overlay
// is the uncached path: every uncertain frame keeps its mixture. The
// returned slice is the caller's; the distributions in it are shared
// and immutable. Execute does not call it — it reads the prepared base
// in place (frameBase) — but callers that want the relation itself do.
func (a *Artifact) FrameRelation(qopt uncertain.QuantizeOptions, labels *labelstore.Overlay) (uncertain.Relation, error) {
	a.mu.Lock()
	base, scores, err := a.baseRelation(qopt)
	a.mu.Unlock()
	if err != nil {
		return nil, err
	}
	rel := make(uncertain.Relation, len(base))
	copy(rel, base)
	if view := overlayView(labels, scores, qopt); view != nil {
		for i := range rel {
			if lvl, ok := view(rel[i].ID); ok {
				rel[i].Dist = uncertain.Certain(lvl)
			}
		}
	}
	return rel, nil
}

// WindowRelation builds the window-level D0 (Eq. 9) from the artifact's
// frame table and segment structure. labels, when non-nil, supplies
// exact scores confirmed by earlier queries over the same cache; it
// must not be mutated while this runs (the score lookup fans out over
// the query's workers).
func (a *Artifact) WindowRelation(w WindowSpec, qopt uncertain.QuantizeOptions, labels *labelstore.Overlay, procs int, pool *workpool.Pool) (uncertain.Relation, error) {
	a.mu.Lock()
	scores, err := a.frameScores()
	a.mu.Unlock()
	if err != nil {
		return nil, err
	}
	diff := diffdet.Result{RepOf: a.RepOf}
	maxLevel := 0
	if qopt.MaxLevel > 0 && qopt.MaxLevel < int(^uint(0)>>1) {
		maxLevel = qopt.MaxLevel
	}
	return windows.BuildRelation(func(rep int) windows.FrameScore {
		fs := scores[rep]
		if !fs.IsExact {
			if s, ok := labels.Get(rep); ok {
				return windows.FrameScore{IsExact: true, Exact: s}
			}
		}
		return fs
	}, diff, windows.Options{Size: w.Size, Stride: w.Stride, Step: qopt.Step, MaxLevel: maxLevel, Procs: procs, Pool: pool})
}
