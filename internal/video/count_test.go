package video

import (
	"math"
	"testing"
)

// catalogClasses is every object class the dataset catalog generates.
var catalogClasses = []string{ClassCar, ClassBus, ClassPerson, ClassBoat}

// catalogSources builds every catalog dataset at its default length.
func catalogSources(t *testing.T) []*Synthetic {
	t.Helper()
	var out []*Synthetic
	for _, spec := range Datasets() {
		s, err := spec.Build(0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// TestCountObjectsMatchesScene: on every frame of every catalog dataset,
// CountObjects answers for every class what the frame's scene lists —
// directly, through a slice (re-indexed from 1) and through a prefix.
func TestCountObjectsMatchesScene(t *testing.T) {
	for _, s := range catalogSources(t) {
		n := s.NumFrames()
		sl, err := Slice(s, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := Prefix(s, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			sc := s.Scene(i)
			for _, c := range catalogClasses {
				want := sc.CountClass(c)
				if got := s.CountObjects(i, c); got != want {
					t.Fatalf("%s frame %d: CountObjects(%q) = %d, scene lists %d", s.Name(), i, c, got, want)
				}
				if got := pre.CountObjects(i, c); got != want {
					t.Fatalf("%s frame %d: prefix CountObjects(%q) = %d, scene lists %d", s.Name(), i, c, got, want)
				}
				if i > 0 {
					if got := sl.CountObjects(i-1, c); got != want {
						t.Fatalf("%s frame %d: slice CountObjects(%q) = %d, scene lists %d", s.Name(), i, c, got, want)
					}
				}
			}
		}
	}
}

// TestCountObjectsSaturatedEntry: a saturated count-table entry is not an
// answer — the frame is counted from the chunk index instead.
func TestCountObjectsSaturatedEntry(t *testing.T) {
	spec, err := DatasetByName("Archie")
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.Build(2000)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for s.TrueCountFast(i) == 0 {
		i++
	}
	want := s.Scene(i).CountClass(ClassCar)
	s.counts[i] = math.MaxUint16
	if got := s.CountObjects(i, ClassCar); got != want {
		t.Fatalf("frame %d with a saturated entry: CountObjects = %d, scene lists %d", i, got, want)
	}
}

func TestCountObjectsOutOfRangePanics(t *testing.T) {
	s := testSource(t, 100)
	for _, i := range []int{-1, s.NumFrames()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("CountObjects(%d) on %d frames did not panic", i, s.NumFrames())
				}
			}()
			s.CountObjects(i, ClassCar)
		}()
	}
}
