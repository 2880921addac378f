package core

import "cmp"

// certainSet tracks the tuples whose exact scores are known and answers
// order-statistics queries for the top of the score order.
//
// Phase 2 only ever needs the K-th and (K−1)-st largest certain scores
// (S_k and S_p) and, at termination, the Top-K list itself. Certain scores
// never change once confirmed, so the set keeps just the current Top-K in
// a small sorted buffer (level descending, ID ascending for deterministic
// ties) and discards everything below — an O(K) insert instead of a full
// order-statistics tree.
type certEntry struct {
	id    int
	level int
}

type certainSet struct {
	cap int // number of top entries retained (the query's K)
	top []certEntry
	n   int // total certain tuples ever added
}

func newCertainSet() *certainSet { return &certainSet{cap: 1} }

// reserve grows the retained-top capacity; must be called before adds that
// matter for the given K. The engine calls it once with cfg.K.
func (s *certainSet) reserve(k int) {
	if k > s.cap {
		s.cap = k
	}
}

// compareRank orders certain entries the way the set keeps them: level
// descending, then ID ascending.
func compareRank(a, b certEntry) int {
	if a.level != b.level {
		return cmp.Compare(b.level, a.level)
	}
	return cmp.Compare(a.id, b.id)
}

// seed fills an empty set from all of its certain tuples, already in
// compareRank order: the first cap of them are its top.
func (s *certainSet) seed(ranked []certEntry) {
	s.top = append(make([]certEntry, 0, s.cap), ranked[:min(len(ranked), s.cap)]...)
	s.n = len(ranked)
}

// merge adds to the set the base's certain tuples, ranked in
// compareRank order, except the replaced ones skip reports (replaced
// is their count): each enters as add would take it, until one ranks
// after a full top — as every later one does too. It allocates nothing
// and looks at no more than cap + 1 of them besides the replaced ones.
func (s *certainSet) merge(ranked []certEntry, replaced int, skip func(id int) bool) {
	s.n += len(ranked) - replaced
	for _, c := range ranked {
		if skip != nil && skip(c.id) {
			continue
		}
		if !s.insert(c) {
			return
		}
	}
}

// add records a confirmed (id, level) pair.
func (s *certainSet) add(id, level int) {
	s.n++
	s.insert(certEntry{id: id, level: level})
}

// insert places e in the top, reporting false when it ranks after the
// K-th of a full top: that is an O(1) reject, the common case once the
// top has filled. Any other entry is placed by bisection, the entries
// after it shifted down by one copy (the K-th of a full top drops out).
func (s *certainSet) insert(e certEntry) bool {
	last := len(s.top) - 1
	if len(s.top) == s.cap {
		if compareRank(e, s.top[last]) > 0 {
			return false
		}
	} else {
		if s.top == nil {
			s.top = make([]certEntry, 0, s.cap)
		}
		s.top = append(s.top, e)
		last++
	}
	i, j := 0, last
	for i < j {
		m := int(uint(i+j) >> 1)
		if compareRank(s.top[m], e) < 0 {
			i = m + 1
		} else {
			j = m
		}
	}
	copy(s.top[i+1:last+1], s.top[i:last])
	s.top[i] = e
	return true
}

// len returns the total number of certain tuples.
func (s *certainSet) len() int { return s.n }

// kth returns the k-th largest certain level (1-based). It panics if fewer
// than k tuples are certain or k exceeds the reserved capacity.
func (s *certainSet) kth(k int) int {
	if k <= 0 || k > s.cap {
		panic("core: certainSet.kth out of reserved range")
	}
	return s.top[k-1].level
}

// topK returns the IDs and levels of the current Top-K in descending score
// order. It panics if fewer than k tuples are certain.
func (s *certainSet) topK(k int) (ids, levels []int) {
	ids = make([]int, k)
	levels = make([]int, k)
	for i := 0; i < k; i++ {
		ids[i] = s.top[i].id
		levels[i] = s.top[i].level
	}
	return ids, levels
}
