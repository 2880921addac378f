package labelstore

import (
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refSet and refDelete are the per-key path copy the batch passes
// replace, kept here as the reference they must match node for node:
// grow at the top, copy the root→leaf path once per key, and keep empty
// leaves in place on delete. A leaf is rebuilt through refLeaf, which
// unpacks it into its 32 slots, so the reference shares none of the
// packed merge the batch passes use.
func refSet(m Map, f int, v float64) Map {
	if m.root == nil {
		m.root, m.depth = newLeaf(0), 0
	}
	for f >= capacity(m.depth) {
		r := newBranch()
		r.kids[0] = m.root
		m.root = r
		m.depth++
	}
	var added bool
	m.root, added = refSetAt(m.root, m.depth, f, v)
	if added {
		m.count++
	}
	return m
}

func refSetAt(n *node, depth, f int, v float64) (*node, bool) {
	if depth == 0 {
		var slots [fanout]float64
		var occ uint32
		if n != nil {
			slots, occ = unpack(n)
		}
		i := f & levelMask
		added := occ&(1<<i) == 0
		slots[i] = v
		return refLeaf(slots, occ|1<<i), added
	}
	var c *node
	if n != nil {
		c = n.clone()
	} else {
		c = newBranch()
	}
	i := (f >> (bitsPerLevel * depth)) & levelMask
	var added bool
	c.kids[i], added = refSetAt(c.kids[i], depth-1, f, v)
	return c, added
}

func refDelete(m Map, f int) Map {
	if m.root == nil || f < 0 || f >= capacity(m.depth) {
		return m
	}
	if root, removed := refDeleteAt(m.root, m.depth, f); removed {
		m.root = root
		m.count--
	}
	return m
}

func refDeleteAt(n *node, depth, f int) (*node, bool) {
	if n == nil {
		return nil, false
	}
	if depth == 0 {
		i := f & levelMask
		slots, occ := unpack(n)
		if occ&(1<<i) == 0 {
			return n, false
		}
		return refLeaf(slots, occ&^(1<<i)), true
	}
	i := (f >> (bitsPerLevel * depth)) & levelMask
	kid, removed := refDeleteAt(n.kids[i], depth-1, f)
	if !removed {
		return n, false
	}
	c := n.clone()
	c.kids[i] = kid
	return c, true
}

// unpack spreads a packed leaf over its 32 slots by probing each one.
func unpack(n *node) (slots [fanout]float64, occ uint32) {
	k := 0
	for i := 0; i < fanout; i++ {
		if n.bits&(1<<i) != 0 {
			slots[i] = n.vals[k]
			k++
		}
	}
	if k != len(n.vals) {
		panic(fmt.Sprintf("leaf holds %d scores for %d set bits", len(n.vals), k))
	}
	return slots, n.bits
}

// refLeaf packs the occupied slots into a fresh leaf, in slot order.
func refLeaf(slots [fanout]float64, occ uint32) *node {
	var vals []float64
	for i := 0; i < fanout; i++ {
		if occ&(1<<i) != 0 {
			vals = append(vals, slots[i])
		}
	}
	c := newLeaf(len(vals))
	copy(c.vals, vals)
	c.bits = occ
	return c
}

// sameShape reports the first difference between two tries: a node
// present in one and not the other, a leaf/branch mismatch, or a leaf's
// occupancy or any of its scores — a leaf holds exactly one per set
// bit, so equal bitmaps and equal packed scores are equal slots. The
// error names the path of child slots from the root.
func sameShape(a, b *node, depth int) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf(": node present in one trie only (%v vs %v)", a != nil, b != nil)
	}
	if a == nil {
		return nil
	}
	if (a.kids == nil) != (depth == 0) || (b.kids == nil) != (depth == 0) {
		return fmt.Errorf(": leaf/branch role differs from the depth")
	}
	if depth == 0 {
		if len(a.vals) != bits.OnesCount32(a.bits) || len(b.vals) != bits.OnesCount32(b.bits) {
			return fmt.Errorf(": a leaf's scores do not match its bitmap")
		}
		if a.bits != b.bits || !slices.Equal(a.vals, b.vals) {
			return fmt.Errorf(": leaf differs: bits %032b vs %032b", a.bits, b.bits)
		}
		return nil
	}
	for i := range a.kids {
		if err := sameShape(a.kids[i], b.kids[i], depth-1); err != nil {
			return fmt.Errorf("/%d%w", i, err)
		}
	}
	return nil
}

func sameMap(got, want Map) error {
	if got.Len() != want.Len() || got.depth != want.depth {
		return fmt.Errorf("Len/depth %d/%d, want %d/%d", got.Len(), got.depth, want.Len(), want.depth)
	}
	if err := sameShape(got.root, want.root, got.depth); err != nil {
		return fmt.Errorf("root%w", err)
	}
	return nil
}

// frozenNode is a deep copy of one node's fields, taken before an
// operation to prove afterwards that the node was never written.
type frozenNode struct {
	kids [fanout]*node
	vals []float64
	bits uint32
}

func freeze(m Map) map[*node]frozenNode {
	out := make(map[*node]frozenNode)
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		f := frozenNode{vals: slices.Clone(n.vals), bits: n.bits}
		if n.kids != nil {
			f.kids = *n.kids
			for _, k := range n.kids {
				walk(k)
			}
		}
		out[n] = f
	}
	walk(m.root)
	return out
}

func assertFrozen(t *testing.T, frozen map[*node]frozenNode, what string) {
	t.Helper()
	for n, f := range frozen {
		if n.bits != f.bits || n.kids != nil && *n.kids != f.kids || !slices.Equal(n.vals, f.vals) {
			t.Fatalf("%s wrote a node reachable from its input map", what)
		}
	}
}

// randomBatch draws up to n distinct keys in [0, span), ascending.
func randomBatch(rng *rand.Rand, n, span int) []int {
	seen := make(map[int]bool, n)
	keys := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if f := rng.Intn(span); !seen[f] {
			seen[f] = true
			keys = append(keys, f)
		}
	}
	sort.Ints(keys)
	return keys
}

// batchBases are the input maps the batch tests start from: empty,
// small and dense, one leaf, a sparse map several levels deep, and a
// map with deleted slots and empty leaves.
func batchBases(rng *rand.Rand) []Map {
	var dense, sparse, holes Map
	for f := 0; f < 300; f++ {
		dense = refSet(dense, f, float64(f))
	}
	for i := 0; i < 200; i++ {
		sparse = refSet(sparse, rng.Intn(1<<18), rng.Float64())
	}
	holes = dense
	for f := 0; f < 300; f += 2 {
		holes = refDelete(holes, f)
	}
	for f := 64; f < 96; f++ {
		holes = refDelete(holes, f)
	}
	return []Map{{}, refSet(Map{}, 7, 1), dense, sparse, holes}
}

// TestSetSortedMatchesSequential checks that one SetSorted batch leaves
// exactly the map a per-key path-copy fold leaves — content, Len, depth
// and every node of the trie — and writes no node of its input, over
// batches that grow the trie, overwrite present keys and fill holes.
func TestSetSortedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for bi, base := range batchBases(rng) {
		for trial := 0; trial < 40; trial++ {
			span := []int{32, 400, 5000, 1 << 20}[trial%4]
			keys := randomBatch(rng, 1+rng.Intn(150), span)
			vals := make([]float64, len(keys))
			want := base
			for i, f := range keys {
				vals[i] = rng.NormFloat64()
				want = refSet(want, f, vals[i])
			}
			frozen := freeze(base)
			got := base.SetSorted(keys, vals)
			assertFrozen(t, frozen, "SetSorted")
			if err := sameMap(got, want); err != nil {
				t.Fatalf("base %d trial %d (%d keys < %d): %v", bi, trial, len(keys), span, err)
			}
			if one := base.Set(keys[0], vals[0]); sameMap(one, refSet(base, keys[0], vals[0])) != nil {
				t.Fatalf("base %d trial %d: Set differs from the one-key fold", bi, trial)
			}
		}
	}
}

// TestDeleteSortedMatchesSequential is the delete-side twin: present,
// absent, negative and out-of-range keys in one batch.
func TestDeleteSortedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for bi, base := range batchBases(rng) {
		for trial := 0; trial < 40; trial++ {
			span := []int{32, 400, 5000, 1 << 20}[trial%4]
			keys := randomBatch(rng, 1+rng.Intn(150), span)
			if trial%3 == 0 {
				keys = append([]int{-9, -2}, append(keys, 1<<40)...)
			}
			want := base
			for _, f := range keys {
				want = refDelete(want, f)
			}
			frozen := freeze(base)
			got := base.DeleteSorted(keys)
			assertFrozen(t, frozen, "DeleteSorted")
			if err := sameMap(got, want); err != nil {
				t.Fatalf("base %d trial %d (%d keys < %d): %v", bi, trial, len(keys), span, err)
			}
			if (want.root == base.root) != (got.root == base.root) {
				t.Fatalf("base %d trial %d: a batch that deletes nothing must return its input uncopied", bi, trial)
			}
		}
	}
}

func TestBatchPanics(t *testing.T) {
	cases := map[string]func(){
		"SetSorted descending":  func() { Map{}.SetSorted([]int{5, 3}, []float64{1, 2}) },
		"SetSorted duplicate":   func() { Map{}.SetSorted([]int{4, 4}, []float64{1, 2}) },
		"SetSorted negative":    func() { Map{}.SetSorted([]int{-1, 3}, []float64{1, 2}) },
		"SetSorted short vals":  func() { Map{}.SetSorted([]int{1, 2}, []float64{1}) },
		"DeleteSorted unsorted": func() { Map{}.Set(1, 1).DeleteSorted([]int{9, 1}) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzMapBatch decodes the input into a sequence of set and delete
// batches and checks every intermediate map against a Go map
// reference (Len, Get of present and just-deleted keys, ascending
// Range) and against the per-key fold node for node; earlier maps must
// stay exactly as they were.
func FuzzMapBatch(f *testing.F) {
	f.Add([]byte{0x10, 1, 2, 3, 4, 0x11, 2, 3})
	f.Add([]byte{0x2e, 0xff, 0x00, 0x7f, 0x80, 0x01, 0x13, 0x00, 0xff})
	f.Add([]byte{0xf8, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Map
		ref := make(map[int]float64)
		type snap struct {
			m   Map
			ref map[int]float64
		}
		var snaps []snap
		for step := 0; len(data) > 0; step++ {
			// Header byte: bit 0 picks set/delete, bits 1–2 a key scale
			// (so batches can force the trie to grow), bits 3–7 the batch
			// size; each key is the next byte shifted by the scale.
			h := data[0]
			data = data[1:]
			n := min(int(h>>3)+1, len(data))
			shift := 5 * int(h>>1&3)
			seen := make(map[int]bool)
			var keys []int
			for _, b := range data[:n] {
				if k := int(b) << shift; !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
			data = data[n:]
			sort.Ints(keys)
			snaps = append(snaps, snap{m, maps.Clone(ref)})
			want := m
			if h&1 == 0 {
				vals := make([]float64, len(keys))
				for i, k := range keys {
					vals[i] = float64(step*1000 + i)
					ref[k] = vals[i]
					want = refSet(want, k, vals[i])
				}
				m = m.SetSorted(keys, vals)
			} else {
				for _, k := range keys {
					delete(ref, k)
					want = refDelete(want, k)
				}
				m = m.DeleteSorted(keys)
			}
			if err := sameMap(m, want); err != nil {
				t.Fatalf("step %d: batch differs from the per-key fold: %v", step, err)
			}
			if err := matches(m, ref); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for _, k := range keys {
				if _, ok := ref[k]; !ok {
					if v, ok := m.Get(k); ok {
						t.Fatalf("step %d: Get(%d) = %v after its delete", step, k, v)
					}
				}
			}
		}
		for i, s := range snaps {
			if err := matches(s.m, s.ref); err != nil {
				t.Fatalf("snapshot %d changed: %v", i, err)
			}
		}
	})
}

// matches compares a Map with a Go map: Len, Get of every key, and an
// ascending Range that visits exactly the Go map's entries.
func matches(m Map, ref map[int]float64) error {
	if m.Len() != len(ref) {
		return fmt.Errorf("Len %d, want %d", m.Len(), len(ref))
	}
	prev, n := -1, 0
	var err error
	m.Range(func(f int, v float64) bool {
		if want, ok := ref[f]; !ok || v != want || f <= prev {
			err = fmt.Errorf("Range visited (%d, %v) after %d; reference has (%v, %v)", f, v, prev, want, ok)
			return false
		}
		prev = f
		n++
		return true
	})
	if err != nil {
		return err
	}
	if n != len(ref) {
		return fmt.Errorf("Range visited %d entries, want %d", n, len(ref))
	}
	for k, v := range ref {
		if got, ok := m.Get(k); !ok || got != v {
			return fmt.Errorf("Get(%d) = (%v, %v), want %v", k, got, ok, v)
		}
	}
	return nil
}
