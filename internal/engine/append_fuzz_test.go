package engine

import (
	"reflect"
	"strings"
	"testing"

	"github.com/everest-project/everest/internal/uncertain"
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
//	  2 mod 3 → Mixtures[int(b)-4] = a one-component mixture
func artifactFromBytes(data []byte) *Artifact {
	a := &Artifact{Exact: map[int32]float64{}, Mixtures: map[int32]uncertain.Mixture{}}
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
			a.Mixtures[f] = uncertain.Mixture{{Weight: 1, Mean: float64(f), Sigma: 1}}
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
		Mixtures: map[int32]uncertain.Mixture{2: {{Weight: 1, Mean: 1, Sigma: 1}}},
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
		Mixtures:    map[int32]uncertain.Mixture{},
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
