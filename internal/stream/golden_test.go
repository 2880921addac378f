package stream

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/golden"
	"github.com/everest-project/everest/internal/simclock"
)

// bits renders a float as its IEEE-754 bit pattern and its shortest
// decimal, so a transcript diff shows both that and how far a value moved.
func bits(v float64) string { return fmt.Sprintf("%#016x %v", math.Float64bits(v), v) }

// artifactHash folds the artifact's frame structure, exact labels and
// every mixture component's bits into one FNV-64a sum.
func artifactHash(a *engine.Artifact) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(a.TotalFrames))
	for _, r := range a.RepOf {
		word(uint64(r))
	}
	for _, r := range a.Retained {
		word(uint64(r))
	}
	keys := make([]int, 0, len(a.Exact))
	for f := range a.Exact {
		keys = append(keys, int(f))
	}
	sort.Ints(keys)
	for _, f := range keys {
		word(uint64(f))
		word(math.Float64bits(a.Exact[int32(f)]))
	}
	for _, mix := range a.Mixtures {
		word(uint64(len(mix)))
		for _, c := range mix {
			word(math.Float64bits(c.Weight))
			word(math.Float64bits(c.Mean))
			word(math.Float64bits(c.Sigma))
		}
	}
	return h.Sum64()
}

// deltaLines renders one follower delta: answer IDs, score bits and the
// confidence.
func deltaLines(name string, d Delta) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seq %d frontier %d entered %v left %v reordered %v\n",
		name, d.Seq, d.Frontier, d.Entered, d.Left, d.Reordered)
	fmt.Fprintf(&b, "  ids %v\n", d.IDs)
	for i, s := range d.Scores {
		fmt.Fprintf(&b, "  score %d %s\n", i, bits(s))
	}
	fmt.Fprintf(&b, "  confidence %s\n", bits(d.Confidence))
	return b.String()
}

// TestWarmStreamGolden pins a Warm stream to the bit: warm
// closes, one drift fallback forced by a negative tolerance on its
// close, and a calibration reservoir small enough to fill and churn.
// Each close records the counters, the simulated ingest and training
// charges, a hash of the artifact and every follower delta it produced,
// so a change to the warm path's numerics, its charges or the
// reservoir rule shows up as a diff of exactly the closes it moved.
func TestWarmStreamGolden(t *testing.T) {
	const n, seg = 3000, 500
	opt := testIngest(7)
	opt.Procs = 2
	// Costs with no short binary expansion: a float running total would
	// depend on the order of the charges; the clock's whole ticks do not.
	opt.Cost.OracleMS, opt.Cost.DecodeMS, opt.Cost.DiffMS = 191.31, 5.51, 0.47
	opt.Cost.ProxyMS, opt.Cost.ProxyTrainSampleMS = 2.9, 17.47
	g, err := NewIngestor(feed(t, n), countUDF(), Config{
		SegmentFrames: seg, Warm: true, DriftNLL: math.Inf(1),
		ReservoirCap: 150, Ingest: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	plans := []engine.Plan{
		{K: 4, Threshold: 0.9, Seed: 5, Cost: simclock.Default()},
		{K: 3, Threshold: 0.9, Window: engine.WindowSpec{Size: 60}, Seed: 5, Cost: simclock.Default()},
	}
	var fols []*Follower
	for _, p := range plans {
		f, err := g.Follow(FollowConfig{Plan: p})
		if err != nil {
			t.Fatal(err)
		}
		fols = append(fols, f)
	}
	seen := make([]int, len(fols))
	var tr golden.Transcript
	record := func(name, input string) {
		var out strings.Builder
		fmt.Fprintf(&out, "stats %+v\n", g.Stats())
		fmt.Fprintf(&out, "ingest %s\ntrain %s\n", bits(g.IngestMS()), bits(g.PhaseMS(simclock.PhaseTrainCMDN)))
		fmt.Fprintf(&out, "artifact %d frames %d retained %016x\n",
			g.Artifact().TotalFrames, len(g.Artifact().Retained), artifactHash(g.Artifact()))
		fmt.Fprintf(&out, "reservoir %d of %d seen\n", len(g.reservoir), g.resSeen)
		for i, f := range fols {
			for _, d := range f.Deltas()[seen[i]:] {
				out.WriteString(deltaLines(fmt.Sprintf("follower %d", i), d))
			}
			seen[i] = len(f.Deltas())
		}
		tr.Add(name, input, out.String(), nil)
	}

	for close := 0; close < n/seg; close++ {
		// The third close falls back to a full train: a negative
		// tolerance rejects its warm start.
		if close == 2 {
			g.cfg.DriftNLL = -1
		}
		cuts := []int{130, 70, 300}
		for _, c := range cuts {
			if err := g.Append(c); err != nil {
				t.Fatal(err)
			}
		}
		g.cfg.DriftNLL = math.Inf(1)
		record(fmt.Sprintf("close/%d", close), fmt.Sprintf("Append %v", cuts))
	}
	if err := g.Seal(); err != nil {
		t.Fatal(err)
	}
	record("seal", "Seal")
	if st := g.Stats(); st.WarmRefreshes != 4 || st.DriftFallbacks != 1 || g.resSeen <= 150 {
		t.Fatalf("the stream did not take the paths under test: %+v, reservoir saw %d", st, g.resSeen)
	}
	tr.Check(t, "testdata/golden_warm.txt")
}
