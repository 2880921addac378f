package core

import "github.com/everest-project/everest/internal/uncertain"

// The possible-world oracle (§3, Eq. 1): exhaustive enumeration,
// exponential in the number of uncertain tuples, that the closed-form
// Phase 2 computations are checked against.

// mustDist is uncertain.NewDist that panics on error, for literals.
func mustDist(min int, probs []float64) uncertain.Dist {
	d, err := uncertain.NewDist(min, probs)
	if err != nil {
		panic(err)
	}
	return d
}

// world is one instantiation of an uncertain relation: a level per
// tuple and the product of the chosen alternatives' probabilities.
type world struct {
	Levels []int
	Prob   float64
}

// enumerateWorlds calls visit for every possible world of rel with
// nonzero probability. Levels is reused between calls.
func enumerateWorlds(rel uncertain.Relation, visit func(world)) {
	levels := make([]int, len(rel))
	var rec func(i int, prob float64)
	rec = func(i int, prob float64) {
		if i == len(rel) {
			visit(world{Levels: levels, Prob: prob})
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

// bruteTopkProb is the probability, by enumeration, that no tuple of
// the uncertain relation rel exceeds level sk (Eq. 2, ties allowed).
func bruteTopkProb(rel uncertain.Relation, sk int) float64 {
	total := 0.0
	enumerateWorlds(rel, func(w world) {
		for _, lvl := range w.Levels {
			if lvl > sk {
				return
			}
		}
		total += w.Prob
	})
	return total
}
