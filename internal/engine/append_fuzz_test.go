package engine

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/everest-project/everest/internal/core"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/xrand"
)

// artifactFromBytes decodes a (possibly invariant-violating) tail
// artifact from fuzz input. The encoding is positional and total: any
// byte string decodes to some artifact, valid or not, so the fuzzer
// explores both sides of Append's validation.
//
//	byte 0:  TotalFrames (mod 32)
//	byte 1:  length of RepOf (mod 40 — may disagree with TotalFrames)
//	then per RepOf entry: one byte, representative = int(b) - 4
//	then one byte per remaining input, round-robin:
//	  0 mod 3 → append value to Retained (int(b) - 4)
//	  1 mod 3 → Exact[int(b)-4] = 1
//	  2 mod 3 → append to Mixtures a one-component mixture, or an
//	            empty one when b is odd (so Mixtures may be shorter or
//	            longer than Retained, or empty where a score is due)
func artifactFromBytes(data []byte) *Artifact {
	a := &Artifact{Exact: map[int32]float64{}}
	if len(data) == 0 {
		return a
	}
	a.TotalFrames = int(data[0]) % 32
	data = data[1:]
	if len(data) == 0 {
		return a
	}
	repLen := int(data[0]) % 40
	data = data[1:]
	for i := 0; i < repLen && i < len(data); i++ {
		a.RepOf = append(a.RepOf, int32(data[i])-4)
	}
	if repLen < len(data) {
		data = data[repLen:]
	} else {
		data = nil
	}
	for i, b := range data {
		f := int32(b) - 4
		switch i % 3 {
		case 0:
			a.Retained = append(a.Retained, f)
		case 1:
			a.Exact[f] = 1
		case 2:
			var mix uncertain.Mixture
			if b%2 == 0 {
				mix = uncertain.Mixture{{Weight: 1, Mean: float64(f), Sigma: 1}}
			}
			a.Mixtures = append(a.Mixtures, mix)
		}
	}
	return a
}

// fuzzBase is a small valid artifact for Append to mutate.
func fuzzBase() *Artifact {
	return &Artifact{
		Dataset: "fuzz", UDFName: "count", TotalFrames: 4,
		RepOf:    []int32{0, 0, 2, 2},
		Retained: []int32{0, 2},
		Exact:    map[int32]float64{0: 3},
		Mixtures: []uncertain.Mixture{nil, {{Weight: 1, Mean: 1, Sigma: 1}}},
	}
}

// FuzzArtifactAppend: for any decodable tail, Append either merges and
// the merged artifact passes Validate, or rejects
// and leaves the receiver bit-identical — never a panic, never a
// silently corrupted artifact.
func FuzzArtifactAppend(f *testing.F) {
	// A valid 3-frame tail: RepOf covers it, Retained ascending.
	f.Add([]byte{3, 3, 4, 4, 6, 4, 5, 6})
	// RepOf length disagrees with TotalFrames.
	f.Add([]byte{5, 2, 4, 4})
	// Out-of-range representative (byte 3 → rep -1).
	f.Add([]byte{2, 2, 3, 4})
	// Unordered Retained entries.
	f.Add([]byte{8, 8, 4, 4, 4, 4, 5, 5, 5, 5, 9, 4, 4, 7, 4, 4})
	// A retained frame with neither a label nor a mixture.
	f.Add([]byte{1, 1, 4, 4})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		base := fuzzBase()
		if err := base.Validate(); err != nil {
			t.Fatalf("fuzz base invalid: %v", err)
		}
		snap := base.Clone()
		tail := artifactFromBytes(data)
		wrongLo := len(data) > 0 && data[len(data)-1]%5 == 0

		lo := base.TotalFrames
		if wrongLo {
			lo++
		}
		err := base.Append(tail, lo)
		if wrongLo && err == nil {
			t.Fatal("append at wrong offset accepted")
		}
		if err != nil {
			if !reflect.DeepEqual(base.Clone(), snap) {
				t.Fatalf("rejected append mutated the artifact: %v", err)
			}
			return
		}
		if cerr := base.Validate(); cerr != nil {
			t.Fatalf("accepted append broke invariants: %v", cerr)
		}
		if base.TotalFrames != snap.TotalFrames+tail.TotalFrames {
			t.Fatalf("frame count %d after appending %d to %d", base.TotalFrames, tail.TotalFrames, snap.TotalFrames)
		}
	})
}

// TestAppendRejectsScorelessTail: a tail whose retained frame has
// neither a label nor a mixture is refused, with the error Validate
// gives the tail, and the receiver is left bit-identical and still
// valid — merged, the scoreless frame would fail every later query.
func TestAppendRejectsScorelessTail(t *testing.T) {
	base := fuzzBase()
	snap := base.Clone()
	tail := &Artifact{
		TotalFrames: 1,
		RepOf:       []int32{0},
		Retained:    []int32{0},
		Exact:       map[int32]float64{},
		Mixtures:    []uncertain.Mixture{nil},
	}
	err := base.Append(tail, base.TotalFrames)
	if want := tail.Validate(); want == nil || err == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Fatalf("Append of a scoreless tail: %v, want the tail's %v", err, want)
	}
	if !reflect.DeepEqual(base.Clone(), snap) {
		t.Fatal("the rejected append mutated the artifact")
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("after the rejected append: %v", err)
	}
}

// FuzzMemoExtend: across up to six Appends decoded from the input, each
// made after a frame and a window query warmed the memo and prepared its
// bases, the memo is extended in place, and after each accepted Append
// its frame and window relations — and a frame and a window plan's
// outcomes under one overlay — equal those of a Clone built from
// scratch. The views and bases taken before an Append still read their
// old tuples: an extension writes only past every prefix a query holds.
// A tail whose retained frame lost its score is rejected and changes
// nothing.
//
//	seed:  the starting artifact, the tails and the overlays
//	steps: two bytes per Append — the tail's frames (1 + b mod 60) and
//	       its clip length (1 + b mod 12; mod 5 = 4 drops a score)
func FuzzMemoExtend(f *testing.F) {
	f.Add(uint64(1), []byte{40, 3, 80, 7, 12, 2})
	f.Add(uint64(7), []byte{0, 0, 59, 11, 4, 4, 200, 9})
	f.Add(uint64(42), []byte{25, 5, 1, 1, 33, 0, 59, 6, 18, 3, 2, 10})
	f.Fuzz(func(t *testing.T, seed uint64, steps []byte) {
		r := xrand.New(seed)
		a := randomArtifactClips(r, 20+int(seed%40), 1+int(seed%9))
		qopt := uncertain.DefaultCountingOptions()
		udf := tableUDF{qopt}
		frameP, windowP := testPlan(3), testPlan(2)
		frameP.BatchSize, windowP.BatchSize = 3, 2
		windowP.Window = WindowSpec{Size: 12, Stride: 6}
		plans := map[string]Plan{}
		for name, p := range map[string]Plan{"frame": frameP, "window": windowP} {
			plan, err := NewPlan(p)
			if err != nil {
				t.Fatal(err)
			}
			plans[name] = plan
		}
		keys := map[string]d0Key{"frame": WindowSpec{}.d0Key(qopt), "window": windowP.Window.d0Key(qopt)}
		outcomes := func(a *Artifact, overlaySeed uint64) map[string]string {
			out := map[string]string{}
			for name, p := range plans {
				labels := overlaysFor(xrand.New(overlaySeed), a)["base-and-fresh"]
				o, err := Execute(p, Binding{UDF: udf, Artifact: a, Labels: labels})
				out[name] = outcomeBits(o, err, labels)
			}
			return out
		}
		for step := 0; len(steps) >= 2 && step < 6; step, steps = step+1, steps[2:] {
			outcomes(a, r.Uint64())
			type held struct {
				v      d0View
				rel    uncertain.Relation
				scores int
				base   *core.Base
			}
			views := map[string]held{}
			for name, key := range keys {
				v, err := a.memo(key, 1, nil)
				if err != nil {
					continue // no complete window yet
				}
				base, err := a.prepared(v, plans[name].Bound())
				if err != nil {
					t.Fatal(err)
				}
				views[name] = held{v, slices.Clone(v.rel), len(v.scores), base}
			}
			tail := randomArtifactClips(r, 1+int(steps[0])%60, 1+int(steps[1])%12)
			if steps[1]%5 == 4 {
				for i, f := range tail.Retained {
					if _, ok := tail.Exact[f]; !ok {
						tail.Mixtures[i] = nil
						break
					}
				}
			}
			snap := a.Clone()
			if err := a.Append(tail, a.TotalFrames); err != nil {
				if tail.Validate() == nil {
					t.Fatalf("step %d: a valid tail was rejected: %v", step, err)
				}
				if !reflect.DeepEqual(a.Clone(), snap) {
					t.Fatalf("step %d: a rejected tail changed the artifact", step)
				}
				continue
			}
			fresh := a.Clone()
			for name, key := range keys {
				got, gerr := a.memo(key, 1, nil)
				want, werr := fresh.memo(key, 1, nil)
				if (gerr == nil) != (werr == nil) || gerr == nil && (!reflect.DeepEqual(got.rel, want.rel) || !slices.Equal(got.failed, want.failed)) {
					t.Fatalf("step %d: the extended %s memo differs from a fresh build (errors %v, %v)", step, name, gerr, werr)
				}
			}
			overlaySeed := r.Uint64()
			if got, want := outcomes(a, overlaySeed), outcomes(fresh, overlaySeed); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: outcomes over the extended memo differ from a fresh build:\n got %v\nwant %v", step, got, want)
			}
			for name, h := range views {
				if !reflect.DeepEqual(h.v.rel, h.rel) || len(h.v.scores) != h.scores || h.base.Len() != len(h.rel) {
					t.Fatalf("step %d: the %s view or base held across the append changed", step, name)
				}
			}
		}
	})
}
