// Package xrand provides deterministic, stream-splittable pseudo-random
// number generation for the Everest reproduction.
//
// Every stochastic component of the system (scene simulation, frame
// sampling, network initialization, window sampling) draws from an xrand
// stream derived from a single experiment seed, so that every experiment in
// EXPERIMENTS.md is bit-reproducible. Streams are split by string labels:
// two components that split from the same parent with different labels
// receive statistically independent streams, and inserting a new consumer
// does not perturb existing ones (unlike sharing one math/rand source).
package xrand

import (
	"hash/fnv"
	"math"
)

// RNG is a deterministic pseudo-random number generator based on the
// splitmix64 / xoshiro256** family. The zero value is NOT ready for use;
// construct with New or Split.
type RNG struct {
	s [4]uint64
}

// New returns an RNG seeded from seed via splitmix64 state expansion.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not be seeded with all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives an independent child stream identified by label.
// The parent stream is not advanced, so adding or removing Split calls
// never perturbs sibling streams.
func (r *RNG) Split(label string) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return New(r.s[0] ^ rotl(r.s[2], 17) ^ h.Sum64())
}

// SplitIndex derives an independent child stream identified by an integer,
// for per-frame or per-window derivation.
func (r *RNG) SplitIndex(i uint64) *RNG {
	return New(r.s[0] ^ rotl(r.s[2], 17) ^ (i+1)*0xd1342543de82ef95)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value of the xoshiro256** stream.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal variate (Box–Muller; one value per call).
func (r *RNG) Norm() float64 {
	// Reject u1 == 0 to keep Log finite.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormMS returns a normal variate with the given mean and standard deviation.
func (r *RNG) NormMS(mean, stddev float64) float64 {
	return mean + stddev*r.Norm()
}

// Poisson returns a Poisson variate with mean lambda (Knuth for small
// lambda, normal approximation above 64 where the exact loop gets slow).
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		v := int(math.Round(r.NormMS(lambda, math.Sqrt(lambda))))
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	return r.PermInto(nil, n)
}

// PermInto is Perm into caller-owned memory: it writes the permutation
// into p's backing array (growing it only if its capacity is below n) and
// returns it. The draws, and so the permutation, are Perm's exactly — for
// loops that shuffle once per pass and can reuse one buffer.
func (r *RNG) PermInto(p []int, n int) []int {
	if cap(p) < n {
		p = make([]int, n)
	}
	p = p[:n]
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// SampleK returns k distinct values drawn uniformly from [0, n) in
// ascending order. It panics if k > n or k < 0.
func (r *RNG) SampleK(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: SampleK with k out of range")
	}
	// Floyd's algorithm: O(k) expected memory, then sort.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	// Insertion sort; k is typically small relative to n but may be large,
	// so use a shell-style pass for robustness.
	sortInts(out)
	return out
}

func sortInts(a []int) {
	// Simple bottom-up merge sort to avoid importing sort for one call site.
	n := len(a)
	buf := make([]int, n)
	for width := 1; width < n; width *= 2 {
		for i := 0; i < n; i += 2 * width {
			mid := min(i+width, n)
			end := min(i+2*width, n)
			merge(a[i:mid], a[mid:end], buf[i:end])
		}
		copy(a, buf[:n])
	}
}

func merge(left, right, out []int) {
	i, j, k := 0, 0, 0
	for i < len(left) && j < len(right) {
		if left[i] <= right[j] {
			out[k] = left[i]
			i++
		} else {
			out[k] = right[j]
			j++
		}
		k++
	}
	for i < len(left) {
		out[k] = left[i]
		i++
		k++
	}
	for j < len(right) {
		out[k] = right[j]
		j++
		k++
	}
}
