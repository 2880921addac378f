package core

import (
	"slices"
	"testing"

	"github.com/everest-project/everest/internal/xrand"
)

func TestCertainSetBasicOrder(t *testing.T) {
	s := newCertainSet()
	s.reserve(3)
	s.add(10, 5)
	s.add(11, 9)
	s.add(12, 1)
	s.add(13, 7)
	ids, levels := s.topK(3)
	wantIDs := []int{11, 13, 10}
	wantLv := []int{9, 7, 5}
	for i := range wantIDs {
		if ids[i] != wantIDs[i] || levels[i] != wantLv[i] {
			t.Fatalf("topK = %v/%v, want %v/%v", ids, levels, wantIDs, wantLv)
		}
	}
	if s.kth(1) != 9 || s.kth(2) != 7 || s.kth(3) != 5 {
		t.Fatal("kth wrong")
	}
	if s.len() != 4 {
		t.Fatalf("len = %d, want 4", s.len())
	}
}

func TestCertainSetTieBreaksByID(t *testing.T) {
	s := newCertainSet()
	s.reserve(2)
	s.add(9, 5)
	s.add(3, 5)
	s.add(6, 5)
	ids, _ := s.topK(2)
	if ids[0] != 3 || ids[1] != 6 {
		t.Fatalf("tie break wrong: %v", ids)
	}
}

func TestCertainSetDiscardsBelowTop(t *testing.T) {
	s := newCertainSet()
	s.reserve(2)
	for i := 0; i < 100; i++ {
		s.add(i, i)
	}
	ids, levels := s.topK(2)
	if ids[0] != 99 || ids[1] != 98 || levels[0] != 99 || levels[1] != 98 {
		t.Fatalf("topK = %v/%v", ids, levels)
	}
	if len(s.top) != 2 {
		t.Fatalf("retained %d entries, want 2", len(s.top))
	}
}

func TestCertainSetKthPanicsOutOfRange(t *testing.T) {
	s := newCertainSet()
	s.reserve(2)
	s.add(0, 1)
	s.add(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("kth(3) beyond reserved capacity should panic")
		}
	}()
	s.kth(3)
}

func TestCertainSetAscendingInserts(t *testing.T) {
	s := newCertainSet()
	s.reserve(4)
	for i := 1; i <= 10; i++ {
		s.add(i, i)
	}
	_, levels := s.topK(4)
	want := []int{10, 9, 8, 7}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("levels = %v, want %v", levels, want)
		}
	}
}

func TestCertainSetNegativeLevels(t *testing.T) {
	s := newCertainSet()
	s.reserve(2)
	s.add(0, -5)
	s.add(1, -2)
	s.add(2, -9)
	if s.kth(1) != -2 || s.kth(2) != -5 {
		t.Fatal("negative levels mishandled")
	}
}

// referenceTop is the certain set's answer by sorting everything: the
// first k of entries in compareRank order.
func referenceTop(entries []certEntry, k int) []certEntry {
	sorted := slices.Clone(entries)
	slices.SortFunc(sorted, compareRank)
	return sorted[:min(k, len(sorted))]
}

// TestCertainSetMatchesSortedReference: random add sequences — levels
// with many ties, IDs in any order — leave the top and the count a sort
// of everything added gives, at every step, for K from 1 to past the
// number of adds.
func TestCertainSetMatchesSortedReference(t *testing.T) {
	r := xrand.New(11)
	for trial := 0; trial < 200; trial++ {
		k := 1 + r.Intn(12)
		n := r.Intn(40)
		s := newCertainSet()
		s.reserve(k)
		var added []certEntry
		for _, id := range r.Perm(3 * n)[:n] {
			e := certEntry{id: id, level: r.Intn(8) - 2}
			s.add(e.id, e.level)
			added = append(added, e)
			if want := referenceTop(added, k); !slices.Equal(s.top, want) || s.len() != len(added) {
				t.Fatalf("trial %d, K=%d, after %d adds: top %v count %d, want %v count %d", trial, k, len(added), s.top, s.len(), want, len(added))
			}
		}
	}
}

// TestCertainSetMergeMatchesSortedReference: a set holding some entries
// merged with a ranked list less some replaced IDs — the start of a run
// under overrides — holds the top and count of adding everything but
// the replaced entries one by one.
func TestCertainSetMergeMatchesSortedReference(t *testing.T) {
	r := xrand.New(12)
	for trial := 0; trial < 300; trial++ {
		k := 1 + r.Intn(10)
		ids := r.Perm(80)
		var ranked, overrides []certEntry
		for _, id := range ids[:r.Intn(40)] {
			ranked = append(ranked, certEntry{id: id, level: r.Intn(10)})
		}
		slices.SortFunc(ranked, compareRank)
		var replaced []int
		for _, c := range ranked {
			if r.Intn(4) == 0 {
				replaced = append(replaced, c.id)
				overrides = append(overrides, certEntry{id: c.id, level: r.Intn(12) - 1})
			}
		}
		slices.Sort(replaced)
		for _, id := range ids[40 : 40+r.Intn(30)] {
			overrides = append(overrides, certEntry{id: id, level: r.Intn(12) - 1})
		}
		s := newCertainSet()
		s.reserve(k)
		for _, o := range overrides {
			s.add(o.id, o.level)
		}
		s.merge(ranked, len(replaced), func(id int) bool {
			_, hit := slices.BinarySearch(replaced, id)
			return hit
		})
		all := slices.Clone(overrides)
		for _, c := range ranked {
			if _, hit := slices.BinarySearch(replaced, c.id); !hit {
				all = append(all, c)
			}
		}
		if want := referenceTop(all, k); !slices.Equal(s.top, want) || s.len() != len(all) {
			t.Fatalf("trial %d, K=%d: top %v count %d, want %v count %d", trial, k, s.top, s.len(), want, len(all))
		}
	}
}
