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
// valid, verbatim, while the store advances underneath.
package labelstore

// Trie geometry: 5 key bits per level, 32-way fan-out. Frame indices
// are dense non-negative ints, so the trie is effectively a chunked
// copy-on-write array: a leaf holds 32 consecutive frames' scores and
// a full path for a multi-million-frame video is 4–5 nodes deep.
const (
	bitsPerLevel = 5
	fanout       = 1 << bitsPerLevel
	levelMask    = fanout - 1
)

// node is one trie node. At depth 0 it is a leaf: vals/bits hold up to
// 32 scores for consecutive frame indices. Above depth 0 it is a
// branch: kids point at subtries. Only the slice its level uses is
// allocated, so a path copy moves 32 words per node, not both arrays.
// Nodes are immutable once published into a Map; Set copies the nodes
// along the key's path only.
type node struct {
	kids []*node   // len fanout at branch levels, nil at leaves
	vals []float64 // len fanout at leaves, nil at branch levels
	bits uint32    // leaf occupancy
}

func newLeaf() *node   { return &node{vals: make([]float64, fanout)} }
func newBranch() *node { return &node{kids: make([]*node, fanout)} }

// clone copies a node's occupied role for a path copy.
func (n *node) clone() *node {
	c := &node{bits: n.bits}
	if n.kids != nil {
		c.kids = make([]*node, fanout)
		copy(c.kids, n.kids)
	}
	if n.vals != nil {
		c.vals = make([]float64, fanout)
		copy(c.vals, n.vals)
	}
	return c
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
	return n.vals[i], true
}

// Set returns a map holding every entry of m plus f→v. m itself — and
// every snapshot taken from it — is unchanged. Frame indices must be
// non-negative.
func (m Map) Set(f int, v float64) Map {
	if f < 0 {
		panic("labelstore: negative frame index")
	}
	if m.root == nil {
		m.root = newLeaf()
		m.depth = 0
	}
	// Grow the trie upward until the key fits: the old root becomes
	// child 0 of each new root, preserving all existing entries.
	for f >= capacity(m.depth) {
		r := newBranch()
		r.kids[0] = m.root
		m.root = r
		m.depth++
	}
	root, added := setAt(m.root, m.depth, f, v)
	m.root = root
	if added {
		m.count++
	}
	return m
}

// setAt path-copies n (and its ancestors via the caller) to hold f→v.
func setAt(n *node, depth, f int, v float64) (*node, bool) {
	var c *node
	if n != nil {
		c = n.clone()
	} else if depth == 0 {
		c = newLeaf()
	} else {
		c = newBranch()
	}
	if depth == 0 {
		i := f & levelMask
		added := c.bits&(1<<i) == 0
		c.vals[i] = v
		c.bits |= 1 << i
		return c, added
	}
	i := (f >> (bitsPerLevel * depth)) & levelMask
	kid, added := setAt(c.kids[i], depth-1, f, v)
	c.kids[i] = kid
	return c, added
}

// Delete returns a map holding every entry of m except f. m itself —
// and every snapshot taken from it — is unchanged; the delete
// path-copies O(log₃₂ n) nodes like Set. Deleting an absent key
// returns m unchanged without copying.
func (m Map) Delete(f int) Map {
	if m.root == nil || f < 0 || f >= capacity(m.depth) {
		return m
	}
	root, removed := deleteAt(m.root, m.depth, f)
	if removed {
		m.root = root
		m.count--
	}
	return m
}

// deleteAt path-copies n to drop f; empty leaves are kept in place (the
// occupancy bitmap already marks them absent, and frame indices are
// dense so the slot will likely refill).
func deleteAt(n *node, depth, f int) (*node, bool) {
	if n == nil {
		return n, false
	}
	if depth == 0 {
		i := f & levelMask
		if n.bits&(1<<i) == 0 {
			return n, false
		}
		c := n.clone()
		c.bits &^= 1 << i
		c.vals[i] = 0
		return c, true
	}
	i := (f >> (bitsPerLevel * depth)) & levelMask
	kid, removed := deleteAt(n.kids[i], depth-1, f)
	if !removed {
		return n, false
	}
	c := n.clone()
	c.kids[i] = kid
	return c, true
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
		for i := 0; i < fanout; i++ {
			if n.bits&(1<<i) != 0 && !fn(prefix|i, n.vals[i]) {
				return false
			}
		}
		return true
	}
	for i := 0; i < fanout; i++ {
		if kid := n.kids[i]; kid != nil {
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
