// Package labelstore is the serving-scale label cache substrate: an
// immutable persistent map from frame index to exact oracle score, the
// per-query overlay that queries mutate privately, and a versioned
// process-wide shared cache many sessions publish into.
//
// The paper's Session layer (multi-query work sharing, §4.2 extended)
// caches every oracle-revealed frame score. Under heavy concurrent
// traffic the cache itself becomes the hot path: copying the whole map
// per query snapshot costs O(cache) allocations per request. Map is a
// persistent (immutable, structure-sharing) 32-way trie keyed by frame
// index, so a snapshot is one word copy — O(1) — and an insert
// path-copies O(log₃₂ n) nodes while every previously taken snapshot
// stays frozen. This is the incremental-sharing lever of "Answering
// FO+MOD queries under updates": previously computed answers stay
// valid, verbatim, while the store advances underneath, and an update
// costs in proportion to the update. Labels therefore move a batch at a
// time: a publish or an eviction is one sorted batch (SetSorted,
// DeleteSorted) that path-copies each trie node it touches once, not
// once per label; Set and Delete are the one-key batches. A leaf is
// packed — its occupancy bitmap plus only the scores it holds — so a
// leaf's copy moves its labels, not its 32 slots, and reading or
// walking it visits set bits only.
package labelstore

import (
	"math/bits"
	"sort"
)

// Trie geometry: 5 key bits per level, 32-way fan-out. Frame indices
// are dense non-negative ints, so the trie is effectively a chunked
// copy-on-write array: a leaf covers 32 consecutive frames and a full
// path for a multi-million-frame video is 4–5 nodes deep.
const (
	bitsPerLevel = 5
	fanout       = 1 << bitsPerLevel
	levelMask    = fanout - 1
)

// node is one trie node. At depth 0 it is a leaf: bits marks which of
// its 32 frames hold a score, and vals holds exactly those scores in
// slot order — slot i's score is vals[popcount(bits below i)]. Above
// depth 0 it is a branch: kids point at subtries. Each node is one
// allocation: a branch with its kid array (branchBox), a leaf with room
// for its scores (newLeaf), so a path copy moves what the node holds and
// a leaf's copy grows with its labels, not with its 32 slots. Nodes are
// immutable once published into a Map; a batch copies each node along
// its keys' paths once.
type node struct {
	kids *[fanout]*node // nil at leaves
	vals []float64      // leaves only: len(vals) == popcount(bits)
	bits uint32         // leaf occupancy
}

type branchBox struct {
	n    node
	kids [fanout]*node
}

// leafBox is a leaf and its score array in one allocation; A is a
// [c]float64 for one of newLeaf's capacities.
type leafBox[A any] struct {
	n    node
	vals A
}

func newBranch() *node {
	b := new(branchBox)
	b.n.kids = &b.kids
	return &b.n
}

// newLeaf returns an empty leaf with room for n scores and len(vals)
// == n. The capacities are the largest each fits in its size class of
// the Go allocator (node plus scores: 48 to 320 bytes), so the rounding
// the allocator does anyway is all the slack a leaf carries.
func newLeaf(n int) *node {
	var l *node
	var vals []float64
	switch {
	case n <= 1:
		b := new(leafBox[[1]float64])
		l, vals = &b.n, b.vals[:]
	case n <= 3:
		b := new(leafBox[[3]float64])
		l, vals = &b.n, b.vals[:]
	case n <= 5:
		b := new(leafBox[[5]float64])
		l, vals = &b.n, b.vals[:]
	case n <= 7:
		b := new(leafBox[[7]float64])
		l, vals = &b.n, b.vals[:]
	case n <= 11:
		b := new(leafBox[[11]float64])
		l, vals = &b.n, b.vals[:]
	case n <= 15:
		b := new(leafBox[[15]float64])
		l, vals = &b.n, b.vals[:]
	case n <= 19:
		b := new(leafBox[[19]float64])
		l, vals = &b.n, b.vals[:]
	case n <= 25:
		b := new(leafBox[[25]float64])
		l, vals = &b.n, b.vals[:]
	default:
		b := new(leafBox[[fanout]float64])
		l, vals = &b.n, b.vals[:]
	}
	l.vals = vals[:n:n]
	return l
}

// clone copies a branch for a path copy; leaves are rebuilt instead
// (setLeaf, deleteLeaf), at the size of what they will hold.
func (n *node) clone() *node {
	c := newBranch()
	*c.kids = *n.kids
	return c
}

// slot returns the index in vals of leaf slot i, which must be set.
func (n *node) slot(i int) int {
	return bits.OnesCount32(n.bits & (1<<i - 1))
}

// Map is a persistent frame→score map. The zero value is the empty
// map. Map values are cheap to copy (three words) and safe to share
// across goroutines: all mutating operations return a new Map and
// never touch nodes reachable from existing ones.
type Map struct {
	root  *node
	depth int // branch levels above the leaves; capacity is 32^(depth+1)
	count int
}

// Len returns the number of stored labels.
func (m Map) Len() int { return m.count }

// capacity returns the largest key count representable at depth d.
func capacity(depth int) int { return 1 << (bitsPerLevel * (depth + 1)) }

// Get returns the score stored for frame f.
func (m Map) Get(f int) (float64, bool) {
	if m.root == nil || f < 0 || f >= capacity(m.depth) {
		return 0, false
	}
	n := m.root
	for d := m.depth; d > 0; d-- {
		n = n.kids[(f>>(bitsPerLevel*d))&levelMask]
		if n == nil {
			return 0, false
		}
	}
	i := f & levelMask
	if n.bits&(1<<i) == 0 {
		return 0, false
	}
	return n.vals[n.slot(i)], true
}

// Set returns a map holding every entry of m plus f→v. m itself — and
// every snapshot taken from it — is unchanged. Frame indices must be
// non-negative. It is the one-key case of SetSorted.
func (m Map) Set(f int, v float64) Map {
	return m.SetSorted([]int{f}, []float64{v})
}

// SetSorted returns a map holding every entry of m plus keys[i]→vals[i]
// for each i. keys must be non-negative and strictly ascending, vals
// parallel to them; it panics otherwise. The batch is one pass that
// path-copies each node it touches once, however many of the keys fall
// under it, and the result — content, Len and trie shape node for node
// — is exactly that of folding Set over the keys in order. m itself,
// and every snapshot taken from it, is unchanged.
func (m Map) SetSorted(keys []int, vals []float64) Map {
	if len(keys) != len(vals) {
		panic("labelstore: SetSorted keys and vals differ in length")
	}
	if len(keys) == 0 {
		return m
	}
	if keys[0] < 0 {
		panic("labelstore: negative frame index")
	}
	mustAscend(keys)
	if m.root == nil {
		m.root = newLeaf(0)
		m.depth = 0
	}
	// Grow the trie upward until the largest key fits: the old root
	// becomes child 0 of each new root, preserving all existing entries
	// (the sequential fold grows the same chain, one key at a time).
	for keys[len(keys)-1] >= capacity(m.depth) {
		r := newBranch()
		r.kids[0] = m.root
		m.root = r
		m.depth++
	}
	root, added := setSorted(m.root, m.depth, keys, vals)
	m.root = root
	m.count += added
	return m
}

// setSorted path-copies n (nil: a fresh node) to hold every keys[i]→
// vals[i]; all keys fall under n. It returns the copy and how many keys
// were new.
func setSorted(n *node, depth int, keys []int, vals []float64) (*node, int) {
	if depth == 0 {
		return setLeaf(n, keys, vals)
	}
	var c *node
	if n != nil {
		c = n.clone()
	} else {
		c = newBranch()
	}
	added := 0
	shift := bitsPerLevel * depth
	for len(keys) > 0 {
		i, j := slotRun(keys, shift)
		kid, a := setSorted(c.kids[i], depth-1, keys[:j], vals[:j])
		c.kids[i] = kid
		added += a
		keys, vals = keys[j:], vals[j:]
	}
	return c, added
}

// setLeaf returns a new leaf holding n's scores (nil: none) overwritten
// and extended by keys[i]→vals[i], and how many keys were new. It walks
// the union's slots once, in order, taking each score from the batch
// when the batch sets that slot and from n otherwise.
func setLeaf(n *node, keys []int, vals []float64) (*node, int) {
	var old uint32
	var oldVals []float64
	if n != nil {
		old, oldVals = n.bits, n.vals
	}
	var set uint32
	for _, f := range keys {
		set |= 1 << (f & levelMask)
	}
	c := newLeaf(bits.OnesCount32(old | set))
	c.bits = old | set
	j, o := 0, 0 // next batch score, next score of n
	for k, rest := 0, c.bits; rest != 0; k, rest = k+1, rest&(rest-1) {
		bit := rest & -rest
		if set&bit != 0 {
			c.vals[k] = vals[j]
			j++
			if old&bit != 0 {
				o++
			}
		} else {
			c.vals[k] = oldVals[o]
			o++
		}
	}
	return c, bits.OnesCount32(set &^ old)
}

// Delete returns a map holding every entry of m except f. m itself —
// and every snapshot taken from it — is unchanged. Deleting an absent
// key returns m unchanged without copying. It is the one-key case of
// DeleteSorted.
func (m Map) Delete(f int) Map {
	return m.DeleteSorted([]int{f})
}

// DeleteSorted returns a map holding every entry of m except keys,
// which must be strictly ascending (it panics otherwise); negative,
// out-of-range and absent keys are ignored. Like SetSorted it is one
// pass that path-copies each node holding a deleted key once, and the
// result matches folding Delete over the keys node for node: empty
// leaves are kept in place (the occupancy bitmap already marks them
// absent, and frame indices are dense so the slot will likely refill),
// and a batch that deletes nothing returns m without copying.
func (m Map) DeleteSorted(keys []int) Map {
	mustAscend(keys)
	if m.root == nil {
		return m
	}
	lo := sort.SearchInts(keys, 0)
	hi := sort.SearchInts(keys, capacity(m.depth))
	if lo == hi {
		return m
	}
	if root, removed := deleteSorted(m.root, m.depth, keys[lo:hi]); removed > 0 {
		m.root = root
		m.count -= removed
	}
	return m
}

// deleteSorted path-copies n to drop keys, all of which fall under n.
// It returns n itself when none of them was present.
func deleteSorted(n *node, depth int, keys []int) (*node, int) {
	if n == nil {
		return nil, 0
	}
	if depth == 0 {
		return deleteLeaf(n, keys)
	}
	var c *node
	removed := 0
	shift := bitsPerLevel * depth
	for len(keys) > 0 {
		i, j := slotRun(keys, shift)
		if kid, r := deleteSorted(n.kids[i], depth-1, keys[:j]); r > 0 {
			if c == nil {
				c = n.clone()
			}
			c.kids[i] = kid
			removed += r
		}
		keys = keys[j:]
	}
	if c == nil {
		return n, 0
	}
	return c, removed
}

// deleteLeaf returns a new leaf holding n's scores but those of keys,
// and how many it dropped; n itself when it held none of them.
func deleteLeaf(n *node, keys []int) (*node, int) {
	var drop uint32
	for _, f := range keys {
		drop |= 1 << (f & levelMask)
	}
	if drop &= n.bits; drop == 0 {
		return n, 0
	}
	c := newLeaf(bits.OnesCount32(n.bits &^ drop))
	c.bits = n.bits &^ drop
	k := 0
	for o, rest := 0, n.bits; rest != 0; o, rest = o+1, rest&(rest-1) {
		if drop&(rest&-rest) == 0 {
			c.vals[k] = n.vals[o]
			k++
		}
	}
	return c, bits.OnesCount32(drop)
}

// slotRun returns the child slot of keys[0] at the level whose slot
// bits start at shift, and the length of the run of keys sharing it.
// Keys under one node are ascending, so each slot's keys are adjacent.
func slotRun(keys []int, shift int) (slot, n int) {
	slot = (keys[0] >> shift) & levelMask
	n = 1
	for n < len(keys) && (keys[n]>>shift)&levelMask == slot {
		n++
	}
	return slot, n
}

// mustAscend panics unless keys are strictly ascending.
func mustAscend(keys []int) {
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			panic("labelstore: batch keys not strictly ascending")
		}
	}
}

// Range calls fn for every entry in ascending frame order and stops
// early when fn returns false. Ascending order makes iteration
// deterministic, unlike a Go map.
func (m Map) Range(fn func(f int, v float64) bool) {
	if m.root != nil {
		rangeAt(m.root, m.depth, 0, fn)
	}
}

func rangeAt(n *node, depth, prefix int, fn func(f int, v float64) bool) bool {
	if depth == 0 {
		for k, rest := 0, n.bits; rest != 0; k, rest = k+1, rest&(rest-1) {
			if !fn(prefix|bits.TrailingZeros32(rest), n.vals[k]) {
				return false
			}
		}
		return true
	}
	for i, kid := range n.kids {
		if kid != nil {
			if !rangeAt(kid, depth-1, prefix|i<<(bitsPerLevel*depth), fn) {
				return false
			}
		}
	}
	return true
}

// Overlay is a query's private view of the cache: an immutable base
// snapshot plus the labels this query confirmed on top of it. Reads
// check the fresh labels first, then the base; writes go to the fresh
// map only, so the base snapshot other queries share is never touched.
//
// A nil *Overlay is a valid empty cache that ignores writes — the
// uncached Index.Query path.
//
// Concurrency: Get is safe to call from many goroutines as long as no
// Set is concurrent with it (the engine builds relations from a frozen
// overlay before cleaning mutates it).
type Overlay struct {
	base  Map
	fresh map[int]float64
}

// NewOverlay returns an overlay over the given base snapshot.
func NewOverlay(base Map) *Overlay {
	return &Overlay{base: base}
}

// Get returns the cached score for frame f, fresh labels first.
func (o *Overlay) Get(f int) (float64, bool) {
	if o == nil {
		return 0, false
	}
	if v, ok := o.fresh[f]; ok {
		return v, true
	}
	return o.base.Get(f)
}

// Set records a label confirmed by this query. No-op on a nil overlay.
func (o *Overlay) Set(f int, v float64) {
	if o == nil {
		return
	}
	if o.fresh == nil {
		o.fresh = make(map[int]float64)
	}
	o.fresh[f] = v
}

// Range calls fn for every label the overlay holds, each frame once
// with the score Get returns: the base snapshot's labels in ascending
// frame order (skipping any a fresh label overrides), then the fresh
// labels in no fixed order. It stops early when fn returns false. Like
// Get, it must not run concurrently with Set.
func (o *Overlay) Range(fn func(f int, v float64) bool) {
	if o == nil {
		return
	}
	stopped := false
	o.base.Range(func(f int, v float64) bool {
		if _, ok := o.fresh[f]; ok {
			return true
		}
		stopped = !fn(f, v)
		return !stopped
	})
	if stopped {
		return
	}
	for f, v := range o.fresh {
		if !fn(f, v) {
			return
		}
	}
}

// Fresh returns the labels recorded since the overlay was created —
// exactly what the query must publish back to the shared cache. The
// map is the overlay's own; callers take ownership after the query
// finishes.
func (o *Overlay) Fresh() map[int]float64 {
	if o == nil {
		return nil
	}
	return o.fresh
}
