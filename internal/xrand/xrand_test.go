package xrand

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 64", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split("alpha")
	c2 := parent.Split("beta")
	c1Again := New(7).Split("alpha")
	for i := 0; i < 50; i++ {
		if c1.Uint64() != c1Again.Uint64() {
			t.Fatalf("split stream not reproducible at draw %d", i)
		}
	}
	// Streams with different labels should not be identical.
	x, y := parent.Split("alpha"), parent.Split("beta")
	identical := true
	for i := 0; i < 16; i++ {
		if x.Uint64() != y.Uint64() {
			identical = false
			break
		}
	}
	if identical {
		t.Fatal("split streams alpha and beta are identical")
	}
	_ = c2
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split("x")
	_ = a.Split("y")
	for i := 0; i < 20; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split advanced the parent stream")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(11)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("Norm variance = %v, want ~1", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 20, 100} {
		r := New(17)
		const n = 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(lambda)
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda) > 0.06*lambda+0.05 {
			t.Fatalf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	r := New(19)
	for i := 0; i < 1000; i++ {
		if r.Poisson(0.1) < 0 || r.Poisson(100) < 0 {
			t.Fatal("Poisson returned negative value")
		}
	}
	if r.Poisson(0) != 0 {
		t.Fatal("Poisson(0) != 0")
	}
	if r.Poisson(-1) != 0 {
		t.Fatal("Poisson(-1) != 0")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

// TestPermIntoMatchesPerm: on a shared seed PermInto draws Perm's
// permutation and leaves the generator where Perm does — into a nil
// buffer, a short one, and a long dirty one it must reuse — and reusing a
// buffer allocates nothing.
func TestPermIntoMatchesPerm(t *testing.T) {
	dirty := make([]int, 300)
	for _, n := range []int{0, 1, 2, 17, 100, 257} {
		for name, buf := range map[string][]int{"nil": nil, "short": make([]int, 0, 1), "dirty": dirty} {
			for i := range buf[:cap(buf)] {
				buf[:cap(buf)][i] = -7
			}
			a, b := New(99), New(99)
			want := a.Perm(n)
			got := b.PermInto(buf, n)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d %s buffer: PermInto %v, Perm %v", n, name, got, want)
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("n=%d %s buffer: generators diverge after the shuffle", n, name)
			}
			if cap(buf) >= n && n > 0 && &got[0] != &buf[:1][0] {
				t.Fatalf("n=%d %s buffer: PermInto left a large-enough buffer unused", n, name)
			}
		}
	}
	r := New(5)
	if allocs := testing.AllocsPerRun(50, func() { dirty = r.PermInto(dirty, 257) }); allocs != 0 {
		t.Fatalf("PermInto into a large-enough buffer allocates %v objects", allocs)
	}
}

func TestSampleKProperties(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%200 + 1
		k := int(kRaw) % (n + 1)
		s := New(seed).SampleK(n, k)
		if len(s) != k {
			return false
		}
		for i, v := range s {
			if v < 0 || v >= n {
				return false
			}
			if i > 0 && s[i-1] >= v {
				return false // must be strictly ascending (distinct + sorted)
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleKFull(t *testing.T) {
	s := New(29).SampleK(10, 10)
	for i, v := range s {
		if v != i {
			t.Fatalf("SampleK(10,10) = %v, want identity", s)
		}
	}
}

func TestSampleKUniformity(t *testing.T) {
	// Each element of [0,10) should appear in a 3-subset with prob 0.3.
	counts := make([]int, 10)
	r := New(31)
	const trials = 30000
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleK(10, 3) {
			counts[v]++
		}
	}
	for i, c := range counts {
		p := float64(c) / trials
		if math.Abs(p-0.3) > 0.02 {
			t.Fatalf("element %d sampled with freq %v, want ~0.3", i, p)
		}
	}
}

func TestSplitIndexReproducible(t *testing.T) {
	a := New(99).SplitIndex(12345)
	b := New(99).SplitIndex(12345)
	c := New(99).SplitIndex(12346)
	diff := false
	for i := 0; i < 20; i++ {
		av := a.Uint64()
		if av != b.Uint64() {
			t.Fatal("SplitIndex not reproducible")
		}
		if av != c.Uint64() {
			diff = true
		}
	}
	if !diff {
		t.Fatal("SplitIndex(12345) and (12346) identical")
	}
}
