package uncertain

// This file implements possible-world semantics (§3, Eq. 1) by exhaustive
// enumeration. It is exponential in the number of uncertain tuples and
// exists as an independent test oracle for the closed-form Phase 2
// computations (Eq. 2–6).

// MustDist is NewDist that panics on error, for literals in tests.
func MustDist(min int, probs []float64) Dist {
	d, err := NewDist(min, probs)
	if err != nil {
		panic(err)
	}
	return d
}

// World is one instantiation of an uncertain relation: a level per tuple
// and the world's probability (the product of the chosen alternatives).
type World struct {
	// Levels[i] is the score level assigned to rel[i].
	Levels []int
	// Prob is Π Pr(rel[i] == Levels[i]).
	Prob float64
}

// EnumerateWorlds calls visit for every possible world of rel. Worlds with
// zero probability are skipped. The Levels slice is reused between calls;
// callers must copy it to retain it.
func EnumerateWorlds(rel Relation, visit func(World)) {
	levels := make([]int, len(rel))
	var rec func(i int, prob float64)
	rec = func(i int, prob float64) {
		if i == len(rel) {
			visit(World{Levels: levels, Prob: prob})
			return
		}
		d := rel[i].Dist
		for k, p := range d.P {
			if p == 0 {
				continue
			}
			levels[i] = d.Min + k
			rec(i+1, prob*p)
		}
	}
	rec(0, 1)
}

// WorldCount returns the number of possible worlds (product of support
// sizes), for guarding test sizes.
func WorldCount(rel Relation) int {
	n := 1
	for _, x := range rel {
		n *= len(x.Dist.P)
		if n > 1<<30 {
			return 1 << 30
		}
	}
	return n
}

// BruteTopkProb computes, by possible-world enumeration, the probability
// that no tuple of rel exceeds the threshold level sk — the event under
// which a certain result set with K-th score sk is the exact Top-K
// (Eq. 2, with ties allowed per the paper's footnote). rel must contain
// only the *uncertain* tuples.
func BruteTopkProb(rel Relation, sk int) float64 {
	total := 0.0
	EnumerateWorlds(rel, func(w World) {
		for _, lvl := range w.Levels {
			if lvl > sk {
				return
			}
		}
		total += w.Prob
	})
	return total
}
