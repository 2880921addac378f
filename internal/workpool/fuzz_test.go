package workpool

import (
	"math"
	"testing"
)

// FuzzMapOrdering fuzzes the determinism contract over arbitrary item
// and worker counts: Map must emit results in index order (out[i] is
// fn's value for item i, never a neighbour's), which is what lets a
// caller reduce parallel floating-point terms serially in index order
// and get the serial loop's bits.
func FuzzMapOrdering(f *testing.F) {
	f.Add(0, 1, uint64(1))
	f.Add(1, 64, uint64(2))
	f.Add(100, 4, uint64(3))
	f.Add(999, 7, uint64(4))
	f.Add(4096, 0, uint64(5))
	f.Add(5000, -3, uint64(6))
	f.Fuzz(func(t *testing.T, n, procs int, seed uint64) {
		if n < 0 {
			n = -n
		}
		n %= 5000
		if procs > 128 {
			procs %= 128
		}
		// Deterministic, distinct per-index values, so an item emitted at
		// a neighbour's index shows.
		term := func(i int) float64 {
			x := seed + uint64(i)*0x9e3779b97f4a7c15
			x ^= x >> 29
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 32
			mag := int(x%61) - 30
			return math.Ldexp(float64(int32(x>>32)), mag)
		}

		out := Map(procs, n, func(_, i int) float64 { return term(i) })
		if len(out) != n {
			t.Fatalf("Map emitted %d results for %d items", len(out), n)
		}
		for i, v := range out {
			if want := term(i); v != want {
				t.Fatalf("n=%d procs=%d: out[%d] = %v, want %v (index-ordered emission violated)",
					n, procs, i, v, want)
			}
		}
	})
}
