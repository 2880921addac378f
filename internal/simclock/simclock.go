// Package simclock provides the simulated-cost accounting substrate.
//
// The paper's evaluation runs on a GTX 1080 Ti where the oracle (YOLOv3)
// processes ~5 frames/second while the specialized proxy runs two orders of
// magnitude faster. This reproduction has no GPU, so all reported "runtimes"
// and speedups are expressed in simulated milliseconds of accelerator+decode
// time charged through a Clock. Each component (decoder, difference
// detector, proxy, oracle, baselines) charges its per-frame cost to a named
// phase, which yields both end-to-end latency (Fig. 4–9) and the phase
// breakdown of Table 8.
//
// The default cost model is calibrated so that the *relative* costs match
// the paper's hardware: oracle ≈ 200 ms/frame (5 fps), video decode ≈ 6
// ms/frame (the paper notes decode becomes the bottleneck once the CMDN is
// small), CMDN inference ≈ 3 ms/frame, CMDN training ≈ 18 ms per sample
// epoch. Absolute wall-clock is irrelevant; the shape (who wins and by what
// factor) is what the model preserves.
package simclock

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// Phase identifies a stage of query execution for the Table 8 breakdown.
type Phase string

// Phases the Everest pipeline charges (the baselines charge the same
// ones).
const (
	PhaseLabelSamples Phase = "phase1/label-samples-by-oracle"
	PhaseTrainCMDN    Phase = "phase1/train-cmdn"
	PhasePopulateD0   Phase = "phase1/populate-d0-by-cmdn"
	PhaseDiffDetect   Phase = "phase1/difference-detector"
	PhaseSelect       Phase = "phase2/select-candidate"
	PhaseConfirm      Phase = "phase2/confirm-by-oracle"
	PhaseTopkProb     Phase = "phase2/topk-prob"
	// PhaseRetryBackoff accounts the simulated waits the retry layer
	// inserts between oracle dispatch attempts after transient failures.
	// Zero on the golden path — it appears only when faults fire.
	PhaseRetryBackoff Phase = "phase2/retry-backoff"
)

// CostModel holds per-operation simulated costs in milliseconds.
type CostModel struct {
	// OracleMS is the accurate detector's per-frame inference cost
	// (YOLOv3-class model at ~5 fps, fully batched throughput).
	OracleMS float64
	// OracleCallMS is the fixed overhead of one oracle invocation (kernel
	// launch, host↔device transfer, pipeline fill). Batching b frames per
	// call amortizes it — the reason §3.5 batches Phase 2 cleaning.
	OracleCallMS float64
	// DecodeMS is the per-frame video decode cost.
	DecodeMS float64
	// DiffMS is the per-frame difference-detector (pixel MSE) cost.
	DiffMS float64
	// ProxyMS is the CMDN's per-frame inference cost.
	ProxyMS float64
	// ProxyTrainSampleMS is the CMDN training cost per (sample × epoch),
	// summed across the 12 hyperparameter configurations.
	ProxyTrainSampleMS float64
	// TinyMS is the TinyYOLOv3-class baseline's per-frame cost.
	TinyMS float64
	// HOGMS is the HOG+SVM baseline's per-frame cost (hundreds of SVM
	// evaluations over sub-regions make it slower than the deep proxy).
	HOGMS float64
	// SelectPerFrameMS is the algorithmic cost of scoring one candidate in
	// Select-candidate (Eq. 6); it is orders of magnitude below inference.
	SelectPerFrameMS float64
}

// Default returns the calibrated cost model described in the package
// comment.
func Default() CostModel {
	return CostModel{
		OracleMS:           200,  // 5 fps
		OracleCallMS:       160,  // per-invocation overhead
		DecodeMS:           6,    // decode dominates once the proxy is small
		DiffMS:             0.4,  // pixel MSE on a decoded frame
		ProxyMS:            3,    // specialized CMDN inference
		ProxyTrainSampleMS: 18,   // all 12 configs, per sample-epoch
		TinyMS:             22,   // TinyYOLOv3 ≈ 45 fps
		HOGMS:              260,  // hundreds of SVM sub-region evaluations
		SelectPerFrameMS:   1e-4, // CPU-side arithmetic per candidate
	}
}

// OrDefault returns c, or Default() when c is the zero CostModel. It is
// the one place a zero model takes its meaning, called only where
// outside input enters (everest.Config and phase1.Options); every layer
// below receives the resolved model.
func OrDefault(c CostModel) CostModel {
	if c == (CostModel{}) {
		return Default()
	}
	return c
}

// Validate rejects a negative or non-finite cost, which no clock can
// charge: engine.Plan.Validate and phase1.SampleCounts (every ingest) call it.
func (m CostModel) Validate() error {
	v := reflect.ValueOf(m)
	for i := range v.NumField() {
		if ms := v.Field(i).Float(); !(ms >= 0) || math.IsInf(ms, 1) {
			return fmt.Errorf("cost %s is %v, want a finite value ≥ 0", v.Type().Field(i).Name, ms)
		}
	}
	return nil
}

// The price list: one method per priced operation, the only code that
// does arithmetic on a CostModel's fields. Every clock charge and every
// prediction (the planner, EXPLAIN, the scan baselines) calls these, so
// a prediction and the charge it predicts differ only by how well the
// counts were estimated, never by the pricing rule.

// topkProbPassMS is the price of one top-k-probability pass over the
// certain set. It is a fixed price, not a CostModel field, because a
// caller-supplied model would leave a new field at zero.
const topkProbPassMS = 1e-3

// Batches returns how many oracle invocations confirming items tuples
// takes at batch size batch (ceil division; §3.5's b). Zero items need
// zero invocations; a non-positive batch is treated as 1.
func Batches(items, batch int) int {
	if items <= 0 {
		return 0
	}
	if batch <= 0 {
		batch = 1
	}
	return (items + batch - 1) / batch
}

// LabelMS prices decoding frames frames and scoring each with a model
// that costs frameMS per frame (vision.UDF.OracleCostMS,
// vision.Detector.FrameCostMS): Phase 1's sample labelling and the scan
// baselines.
func (m CostModel) LabelMS(frames int, frameMS float64) float64 {
	return float64(frames) * (frameMS + m.DecodeMS)
}

// PassMS prices Phase 1's pass over frames frames: each is decoded and
// compared by the difference detector, or only decoded when disableDiff
// is set. Phase 2 charges the decode-only price for cleaned frames whose
// decode prefetching does not hide.
func (m CostModel) PassMS(frames int, disableDiff bool) float64 {
	if disableDiff {
		return float64(frames) * m.DecodeMS
	}
	return float64(frames) * (m.DecodeMS + m.DiffMS)
}

// InferMS prices CMDN inference over frames frames.
func (m CostModel) InferMS(frames int) float64 {
	return float64(frames) * m.ProxyMS
}

// TrainMS prices CMDN grid training over samples: ProxyTrainSampleMS
// per sample, with the epoch and hyperparameter-grid factors baked into
// the constant.
func (m CostModel) TrainMS(samples int) float64 {
	return float64(samples) * m.ProxyTrainSampleMS
}

// LaunchOverheadMS prices the fixed per-invocation overhead of the given
// number of oracle launches — the cost §3.5's batching amortizes.
func (m CostModel) LaunchOverheadMS(launches int) float64 {
	return float64(launches) * m.OracleCallMS
}

// SelectMS prices Select-candidate (Eq. 6) scoring examined candidates.
func (m CostModel) SelectMS(examined int) float64 {
	return float64(examined) * m.SelectPerFrameMS
}

// TopkProbMS prices the given number of top-k-probability passes.
func (CostModel) TopkProbMS(passes int) float64 {
	return topkProbPassMS * float64(passes)
}

// CascadeMS predicts the ingest proxy cascade over a video of frames
// frames, of which retained survive the difference detector. Depth 3
// (decode → diff → proxy, disableDiff false) diff-filters every decoded
// frame and proxy-scores only the retained; depth 2 (decode → proxy)
// skips the filter and proxy-scores everything.
func (m CostModel) CascadeMS(frames, retained int, disableDiff bool) float64 {
	if disableDiff {
		retained = frames
	}
	return m.PassMS(frames, disableDiff) + m.InferMS(retained)
}

// ConfirmMS predicts a Phase 2 confirmation workload: frames scored by
// an oracle charging udfFrameMS per frame, dispatched in the given
// number of launches.
func (m CostModel) ConfirmMS(frames, launches int, udfFrameMS float64) float64 {
	return float64(frames)*udfFrameMS + m.LaunchOverheadMS(launches)
}

// Clock accumulates simulated milliseconds per phase. It counts whole
// nanosecond ticks, so its totals are exact integer sums: the same
// charges give the same bits in any order and from any goroutine. It is
// safe for concurrent use.
type Clock struct {
	mu    sync.Mutex
	total int64
	byPh  map[Phase]int64
}

const ticksPerMS = 1e6 // the clock's resolution: one tick is a nanosecond

func msOf(ticks int64) float64 { return float64(ticks) / ticksPerMS }

// NewClock returns an empty clock.
func NewClock() *Clock {
	return &Clock{byPh: make(map[Phase]int64)}
}

// Charge adds ms simulated milliseconds to the given phase, rounded to
// the nearest tick — the clock's only rounding. A nil clock discards
// the charge. A negative or non-finite charge panics: a CostModel that
// passes Validate never makes one.
func (c *Clock) Charge(ph Phase, ms float64) {
	if !(ms >= 0) || math.IsInf(ms, 1) {
		panic(fmt.Sprintf("simclock: negative or non-finite charge %v to %s", ms, ph))
	}
	if c != nil {
		c.add(ph, int64(math.Round(ms*ticksPerMS)))
	}
}

func (c *Clock) add(ph Phase, ticks int64) {
	c.mu.Lock()
	c.total += ticks
	c.byPh[ph] += ticks
	c.mu.Unlock()
}

// TotalMS returns the total simulated milliseconds charged so far.
func (c *Clock) TotalMS() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return msOf(c.total)
}

// PhaseMS returns the simulated milliseconds charged to a phase.
func (c *Clock) PhaseMS(ph Phase) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return msOf(c.byPh[ph])
}

// Breakdown returns each phase's share of the total, in deterministic
// (sorted) order. Shares sum to 1 when total > 0.
func (c *Clock) Breakdown() []PhaseShare {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PhaseShare, 0, len(c.byPh))
	for ph, ticks := range c.byPh {
		share := 0.0
		if c.total > 0 {
			share = float64(ticks) / float64(c.total)
		}
		out = append(out, PhaseShare{Phase: ph, MS: msOf(ticks), Share: share})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Phase < out[j].Phase })
	return out
}

// PhaseShare reports one phase's absolute and relative cost.
type PhaseShare struct {
	Phase Phase
	MS    float64
	Share float64
}

// String renders the breakdown as a small table.
func (c *Clock) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total %.1f ms\n", c.TotalMS())
	for _, ps := range c.Breakdown() {
		fmt.Fprintf(&b, "  %-36s %12.1f ms  %6.2f%%\n", ps.Phase, ps.MS, 100*ps.Share)
	}
	return b.String()
}

// ChargeParallelMax folds a parallel stage into this clock under a
// bulk-synchronous (BSP) model: the stage's workers run each phase
// concurrently with a barrier between phases, so the stage's wall-clock
// contribution per phase is the maximum over the workers' clocks. This is
// how the scale-out executor accounts for P accelerators running Phase 1
// shards side by side. Total worker time (the paid bill, as opposed to
// elapsed time) is the sum of the workers' totals and is returned for
// reporting.
func (c *Clock) ChargeParallelMax(workers []*Clock) (sumMS float64) {
	var sum int64
	maxByPh := make(map[Phase]int64)
	for _, w := range workers {
		if w == nil {
			continue
		}
		w.mu.Lock()
		sum += w.total
		for ph, ticks := range w.byPh {
			maxByPh[ph] = max(maxByPh[ph], ticks)
		}
		w.mu.Unlock()
	}
	for ph, ticks := range maxByPh {
		c.add(ph, ticks)
	}
	return msOf(sum)
}
