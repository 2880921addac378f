package engine

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
	"github.com/everest-project/everest/internal/windows"
)

// Artifact is the captured product of the Ingest stage: everything Phase
// 2 needs from Phase 1, detached from the live pipeline. Per retained
// frame it holds either the exact oracle label (a Phase 1 sample) or the
// CMDN's score mixture, plus the difference-detector segment structure.
// One Artifact serves any number of plans — different K, thres, window
// shape — and is the in-memory body of a persisted everest.Index.
type Artifact struct {
	// Dataset, UDFName and TotalFrames identify the (video, UDF) pair the
	// artifact was ingested from; ValidateFor enforces the binding.
	Dataset     string
	UDFName     string
	TotalFrames int
	// Retained lists the frames surviving the difference detector, in
	// ascending order; RepOf maps every frame to its segment
	// representative.
	Retained []int32
	RepOf    []int32
	// Exact holds Phase 1 oracle labels, each on a retained frame;
	// Mixtures, parallel to Retained, the proxy's score mixture of each
	// retained frame, empty at exact ones. Index format 2 saves both as
	// slices, byte-stably; format 1's maps by frame still load.
	Exact    map[int32]float64
	Mixtures []uncertain.Mixture
	// Info is the Phase 1 statistics summary.
	Info phase1.Info

	// The query-independent base of D0 (relation.go), built by the first
	// query that asks and extended over the tail after an Append: scores
	// is Phase 1's knowledge per frame and span the largest distance from
	// a frame to its representative, both over the first len(scores)
	// frames; memos the relations of the most recently used D0 keys — the
	// frame relation and window shapes, each under one quantization, with
	// its prepared base — most recent first. mu guards these fields, never
	// the data above — concurrent queries share one artifact, and Append
	// keeps its "no query in flight" contract. An Artifact must not be
	// copied by value; use Clone.
	mu     sync.Mutex
	scores []windows.FrameScore
	span   int
	memos  []*d0Entry
}

// Clone returns a deep copy of the artifact's data with an empty memo:
// what tests and callers that used to copy the struct by value want.
func (a *Artifact) Clone() *Artifact {
	mixtures := slices.Clone(a.Mixtures)
	for i, m := range mixtures {
		mixtures[i] = slices.Clone(m)
	}
	return &Artifact{
		Dataset:     a.Dataset,
		UDFName:     a.UDFName,
		TotalFrames: a.TotalFrames,
		Retained:    slices.Clone(a.Retained),
		RepOf:       slices.Clone(a.RepOf),
		Exact:       maps.Clone(a.Exact),
		Mixtures:    mixtures,
		Info:        a.Info,
	}
}

// Ingest runs Phase 1 over src and captures its outputs. Proxy inference
// for unlabeled retained frames runs on the configured workers and is
// charged to clock (PhasePopulateD0), exactly like the lazy relation
// build it replaces. opt.Cost must be resolved (simclock.OrDefault):
// Capture charges it as given.
func Ingest(src video.Source, udf vision.UDF, opt phase1.Options, clock *simclock.Clock) (*Artifact, error) {
	if src == nil || udf == nil {
		return nil, errors.New("everest: nil source or UDF")
	}
	st, err := phase1.Run(src, udf, opt, clock)
	if err != nil {
		return nil, err
	}
	return Capture(st, udf, opt.Cost, clock), nil
}

// Capture assembles an Artifact from a completed Phase 1 State —
// Ingest's second half, exported so the streaming ingestor can feed it
// states whose proxy came from a warm refresh rather than phase1.Run.
// Proxy inference for unlabeled retained frames runs on the state's
// configured workers and its cost is charged here (PhasePopulateD0).
func Capture(st *phase1.State, udf vision.UDF, cost simclock.CostModel, clock *simclock.Clock) *Artifact {
	a := &Artifact{
		Dataset:     st.Src.Name(),
		UDFName:     udf.Name(),
		TotalFrames: st.Src.NumFrames(),
		RepOf:       append([]int32(nil), st.Diff.RepOf...),
		Retained:    make([]int32, len(st.Diff.Retained)),
		Exact:       make(map[int32]float64),
		Mixtures:    make([]uncertain.Mixture, len(st.Diff.Retained)),
		Info:        st.Info,
	}
	// mixes serves the unlabelled retained frames in retained order.
	inferIDs, mixes := st.InferRetainedMixtures()
	for i, f := range st.Diff.Retained {
		a.Retained[i] = int32(f)
		if s, ok := st.Labeled[f]; ok {
			a.Exact[int32(f)] = s
		} else {
			a.Mixtures[i], mixes = mixes[0], mixes[1:]
		}
	}
	clock.Charge(simclock.PhasePopulateD0, cost.InferMS(len(inferIDs)))
	return a
}

// ValidateFor checks that (src, udf) is what the artifact was ingested
// from.
func (a *Artifact) ValidateFor(src video.Source, udf vision.UDF) error {
	if src == nil || udf == nil {
		return errors.New("everest: nil source or UDF")
	}
	if src.Name() != a.Dataset || src.NumFrames() != a.TotalFrames {
		return fmt.Errorf("everest: index was built for %s (%d frames), not %s (%d frames)",
			a.Dataset, a.TotalFrames, src.Name(), src.NumFrames())
	}
	if udf.Name() != a.UDFName {
		return fmt.Errorf("everest: index was built for UDF %s, not %s", a.UDFName, udf.Name())
	}
	return nil
}

// Append merges the artifact of an ingested tail into a, shifting the
// tail's frame coordinates by lo (the frame count a covered before the
// append). The difference detector never links across the append
// boundary, so the merge is a pure coordinate translation. The tail's
// invariants are validated before a is touched: on error a is
// unchanged. Append writes RepOf, Retained, Mixtures and Exact without
// taking a's lock: no query may be in flight on a while it runs.
func (a *Artifact) Append(tail *Artifact, lo int) error {
	if tail == nil {
		return errors.New("everest: append of nil artifact")
	}
	if lo != a.TotalFrames {
		return fmt.Errorf("everest: append at frame %d, artifact covers %d", lo, a.TotalFrames)
	}
	if err := tail.Validate(); err != nil {
		return fmt.Errorf("everest: append tail: %w", err)
	}
	repOf, retained := len(a.RepOf), len(a.Retained)
	a.RepOf = growTo(a.RepOf, repOf+len(tail.RepOf))
	for i, rep := range tail.RepOf {
		a.RepOf[repOf+i] = int32(lo) + rep
	}
	a.Retained = growTo(a.Retained, retained+len(tail.Retained))
	for i, f := range tail.Retained {
		a.Retained[retained+i] = int32(lo) + f
	}
	a.Mixtures = growTo(a.Mixtures, retained+len(tail.Mixtures))
	copy(a.Mixtures[retained:], tail.Mixtures)
	for f, s := range tail.Exact {
		a.Exact[int32(lo)+f] = s
	}
	a.TotalFrames = lo + tail.TotalFrames
	a.Info.TotalFrames = a.TotalFrames
	a.Info.TrainSamples += tail.Info.TrainSamples
	a.Info.HoldoutSamples += tail.Info.HoldoutSamples
	a.Info.Retained += tail.Info.Retained
	return nil
}

// Validate checks the invariants every artifact holds, which one from
// outside the process — a loaded index file, an appended tail — must
// pass before any query indexes into it: RepOf covers every frame and
// maps it to a frame that represents itself, Retained is strictly
// ascending and in range, Mixtures is parallel to Retained, every
// labelled frame is retained, and every retained frame has a Phase 1
// label or a non-empty mixture (the relation builders' error, if a
// later mutation breaks that).
func (a *Artifact) Validate() error {
	n := a.TotalFrames
	if n < 0 {
		return fmt.Errorf("negative frame count %d", n)
	}
	if len(a.RepOf) != n {
		return fmt.Errorf("RepOf covers %d of %d frames", len(a.RepOf), n)
	}
	for i, rep := range a.RepOf {
		if rep < 0 || int(rep) >= n {
			return fmt.Errorf("frame %d has out-of-range representative %d", i, rep)
		}
	}
	// The window memo finds the frames a representative stands for by
	// its own RepOf entry, so a representative must represent itself.
	for i, rep := range a.RepOf {
		if a.RepOf[rep] != rep {
			return fmt.Errorf("frame %d is represented by frame %d, which is not its own representative", i, rep)
		}
	}
	prev := int32(-1)
	for _, f := range a.Retained {
		if f <= prev || int(f) >= n {
			return fmt.Errorf("retained frame %d out of order or range (after %d, total %d)", f, prev, n)
		}
		prev = f
	}
	if len(a.Mixtures) != len(a.Retained) {
		return fmt.Errorf("%d mixtures for %d retained frames", len(a.Mixtures), len(a.Retained))
	}
	for f := range a.Exact {
		if _, ok := slices.BinarySearch(a.Retained, f); !ok {
			return fmt.Errorf("exact label for frame %d, which is not retained", f)
		}
	}
	for i, f := range a.Retained {
		if _, ok := a.Exact[f]; !ok && len(a.Mixtures[i]) == 0 {
			return missingScore(f)
		}
	}
	return nil
}

// missingScore is the error for a retained frame with neither a Phase 1
// label nor a mixture.
func missingScore(f int32) error {
	return fmt.Errorf("everest: index missing mixture for frame %d", f)
}
