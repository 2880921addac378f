// Package planner chooses engine knob settings for one EQL query by
// pricing candidate plans on the §3.5 simulated cost model and picking
// the cheapest. It is a phase-based, statistics-free greedy planner:
// each knob family is decided by direct cost arithmetic over the few
// numbers Phase 1 already produces (frame count, retained frames,
// already-exact labels) — no cardinality estimator, no learned model.
//
// The knob families, in decision order:
//
//	cascade   ingest proxy-cascade depth: decode→diff→proxy (depth 3)
//	          vs decode→proxy (depth 2). Priced by CostModel.CascadeMS
//	          plus the Phase 2 cost of the extra uncertain tuples a
//	          skipped filter leaves behind. Fixed once an index exists.
//	batch     the Phase 2 cleaning batch b: expected confirmations ×
//	          per-frame oracle cost + expected launches × launch
//	          overhead. Small b pays overhead per tuple; large b
//	          overshoots the stopping point by half a batch.
//	procs     real CPU workers. Wall-clock only — simulated charges and
//	          results are bit-identical for every value — so it is a
//	          workload-size heuristic, never a cost term. Only ingest
//	          fans out now; the reasons stay as the transcripts pin them.
//	serving   Coalesce / UseMux. Pure scheduling: they
//	          change who shares a run and what the device pays, never a
//	          single query's results or charges, so they switch on
//	          expected concurrency alone.
//
// Every prediction uses the same pricing rules the engine charges its
// simclock with (see the cost-prediction helpers in internal/simclock),
// so predicted and actual cost differ only by tuple-count estimation.
//
// ChooseSet extends the same pricing to a coordinated statement set (an
// EQL script): per-unit knobs are chosen per unit, but the serving
// knobs become one budget for the whole set, with Concurrency the
// number of units the set runs instead of a caller hint, and shared
// relations priced once.
package planner

import (
	"fmt"
	"math"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/windows"
)

// Tuning constants of the statistics-free heuristics.
const (
	// DefaultRetention is the assumed difference-detector retention ratio
	// before ingest has measured the real one.
	DefaultRetention = 0.6
	// CleanFrac is the expected fraction of uncertain tuples Phase 2
	// confirms beyond the mandatory K (the paper's "typically <2% of
	// frames" observation).
	CleanFrac = 0.02
	// ScaleOutTuples is the workload size — frames to ingest, or
	// uncertain tuples to scan per Phase 2 iteration — above which the
	// procs heuristic requests a wide worker pool. Wall-clock only.
	ScaleOutTuples = 24000
	// WideProcs is the worker count the procs heuristic requests for
	// large workloads. A fixed constant (not NumCPU) so planner output
	// is machine-independent.
	WideProcs = 8
)

// batchGrid is the candidate batch sizes the batch phase prices.
var batchGrid = []int{1, 2, 4, 8, 16, 32}

// Input is everything the planner knows about one query. Zero values
// mean "unknown" where a heuristic default exists.
type Input struct {
	// Frames is the video length. Required.
	Frames int
	// K is the result size. Required.
	K int
	// Window and Stride describe a window query (zero Window = frames);
	// a window query's Stride is resolved (positive), as in the
	// compiled engine plan.
	Window, Stride int
	// WindowSampleFrac is the per-window confirmation sampling fraction.
	WindowSampleFrac float64
	// UDFFrameMS is the oracle's per-frame inference cost for the bound
	// UDF under Cost.
	UDFFrameMS float64
	// Cost is the simulated cost model the engine will charge.
	Cost simclock.CostModel
	// TrainSamples is the planned Phase 1 label count (train + holdout);
	// used to price ingest.
	TrainSamples int
	// Retained is the diff-detector survivor count when known (an
	// artifact exists); zero estimates via DefaultRetention.
	Retained int
	// Certain is how many retained frames the artifact already holds
	// exact oracle scores for — they enter D0 certain and are never
	// cleaned.
	Certain int
	// HasIndex marks Phase 1 as already paid (serving from an index or
	// session): ingest cost drops out of the objective and the cascade
	// is fixed.
	HasIndex bool
	// CascadeFixed pins the cascade knob to DisableDiff instead of
	// letting the cascade phase price it (always the case with an
	// index; ingest-time callers leave it false).
	CascadeFixed bool
	// DisableDiff is the pinned cascade depth when CascadeFixed.
	DisableDiff bool
	// Concurrency is how many compatible queries the caller expects in
	// flight together; ≤ 1 plans for a lone query.
	Concurrency int
	// PinProcs pins the procs knob when positive.
	PinProcs int
}

// Knobs is one concrete setting of the engine knobs the planner ranges
// over.
type Knobs struct {
	BatchSize int
	Procs     int
	Coalesce  bool
	UseMux    bool
	// DisableDiff false is the depth-3 ingest cascade
	// (decode→diff→proxy); true skips the filter (depth 2).
	DisableDiff bool
}

// Prediction is the §3.5-model cost forecast for one Knobs setting.
type Prediction struct {
	// Phase1MS is the one-off ingest cost (0 when an index exists).
	Phase1MS float64
	// SelectMS is Phase 2's algorithmic cost (select-candidate +
	// topk-prob passes over the uncertain relation).
	SelectMS float64
	// ConfirmMS is Phase 2's oracle bill: confirmation frames at the
	// UDF's per-frame cost plus LaunchMS.
	ConfirmMS float64
	// LaunchMS is the launch-overhead share of ConfirmMS.
	LaunchMS float64
	// TotalMS = Phase1MS + SelectMS + ConfirmMS.
	TotalMS float64
	// Cleaned is the expected number of tuples confirmed.
	Cleaned int
	// Launches is the expected number of oracle invocations.
	Launches int
}

// Candidate is one priced knob setting.
type Candidate struct {
	Knobs Knobs
	Pred  Prediction
	// Why explains each phase decision (filled by Choose on the
	// candidate it returns; ChooseSet's units carry none).
	Why []string
	// Chosen marks the winner in an Enumerate table.
	Chosen bool
}

// uncertainTuples returns the expected uncertain-relation size for a
// cascade depth: windows are all uncertain; frames are the retained set
// minus the already-exact labels.
func (in Input) uncertainTuples(disableDiff bool) int {
	if in.Window > 0 {
		return windows.NumSlidingWindows(in.Frames, in.Window, in.Stride)
	}
	retained := in.Retained
	if retained == 0 {
		if disableDiff {
			retained = in.Frames
		} else {
			retained = int(math.Round(DefaultRetention * float64(in.Frames)))
		}
	}
	u := retained - in.Certain
	if u < 0 {
		u = 0
	}
	return u
}

// samplesPerWindow is how many frames one window confirmation scores.
func (in Input) samplesPerWindow() int {
	o := windows.Oracle{Size: in.Window, SampleFrac: in.WindowSampleFrac}
	return o.SamplesPerWindow()
}

// expectedCleaned is the statistics-free confirmation estimate: Phase 2
// must confirm at least the K result tuples and typically CleanFrac of
// the uncertain relation beyond them.
func (in Input) expectedCleaned(uncertain int) int {
	e := in.K + int(math.Ceil(CleanFrac*float64(uncertain)))
	if e > uncertain {
		e = uncertain
	}
	return e
}

// ingestMS prices Phase 1 at a cascade depth: labelling, grid training,
// and the decode/diff/proxy cascade.
func (in Input) ingestMS(disableDiff bool) float64 {
	retained := in.Retained
	if retained == 0 {
		retained = int(math.Round(DefaultRetention * float64(in.Frames)))
	}
	return in.Cost.LabelMS(in.TrainSamples, in.UDFFrameMS) +
		in.Cost.TrainMS(in.TrainSamples) +
		in.Cost.CascadeMS(in.Frames, retained, disableDiff)
}

// Predict prices one knob setting on the §3.5 model.
func Predict(in Input, kn Knobs) Prediction {
	uncertain := in.uncertainTuples(kn.DisableDiff)
	cleaned := in.expectedCleaned(uncertain)
	if cleaned > 0 {
		// The loop stops mid-batch on average half a batch past the
		// stopping point; the last launch still confirms its whole batch.
		cleaned += (kn.BatchSize - 1) / 2
		if cleaned > uncertain {
			cleaned = uncertain
		}
	}
	launches := simclock.Batches(cleaned, kn.BatchSize)
	confirmFrames := cleaned
	if in.Window > 0 {
		confirmFrames = cleaned * in.samplesPerWindow()
	}
	launchMS := in.Cost.LaunchOverheadMS(launches)
	confirmMS := in.Cost.ConfirmMS(confirmFrames, launches, in.UDFFrameMS)
	// Each cleaning iteration makes a select-candidate pass and a
	// topk-prob pass over the uncertain relation.
	selectMS := 2 * float64(launches) * float64(uncertain) * in.Cost.SelectPerFrameMS
	phase1MS := 0.0
	if !in.HasIndex {
		phase1MS = in.ingestMS(kn.DisableDiff)
	}
	return Prediction{
		Phase1MS:  phase1MS,
		SelectMS:  selectMS,
		ConfirmMS: confirmMS,
		LaunchMS:  launchMS,
		TotalMS:   phase1MS + selectMS + confirmMS,
		Cleaned:   cleaned,
		Launches:  launches,
	}
}

// chooseProcs is the wall-clock-only worker heuristic: wide when the
// per-iteration workload (ingest frames, or uncertain tuples) is large.
func (in Input) chooseProcs(uncertain int) (int, string) {
	if in.PinProcs > 0 {
		return in.PinProcs, fmt.Sprintf("pinned to %d by the caller (wall-clock only; results and charges identical for any value)", in.PinProcs)
	}
	work := uncertain
	if !in.HasIndex && in.Frames > work {
		work = in.Frames
	}
	if work >= ScaleOutTuples {
		return WideProcs, fmt.Sprintf("%d-tuple workload ≥ %d: wide pool of %d workers (wall-clock only; results and charges identical for any value)", work, ScaleOutTuples, WideProcs)
	}
	return 1, fmt.Sprintf("%d-tuple workload below the %d scale-out bar: serial (wall-clock only; results and charges identical for any value)", work, ScaleOutTuples)
}

// servingKnobs is the concurrency phase: scheduling-only knobs that
// never change a query's own results or charges.
func (in Input) servingKnobs() (coalesce, mux bool, why []string) {
	if in.Concurrency <= 1 {
		return false, false, []string{
			"coalesce off: lone query (concurrency ≤ 1), nothing to share a run with",
			"mux off: lone query, no in-flight batches to consolidate",
		}
	}
	return true, true, []string{
		fmt.Sprintf("coalesce on: %d expected compatible queries share one engine run — the group pays the confirmation bill once", in.Concurrency),
		fmt.Sprintf("mux on: %d concurrent confirmation streams consolidate per device launch", in.Concurrency),
	}
}

// cascadeOptions lists the cascade depths to price: just the pinned one
// when fixed, both otherwise.
func (in Input) cascadeOptions() []bool {
	if in.CascadeFixed || in.HasIndex {
		return []bool{in.DisableDiff}
	}
	return []bool{false, true}
}

// Enumerate prices the candidate grid — batch sizes × cascade depths,
// with the procs and serving phases applied uniformly — and marks the
// chosen (cheapest) entry. The table is what EXPLAIN renders.
func Enumerate(in Input) []Candidate {
	coalesce, mux, _ := in.servingKnobs()
	var cands []Candidate
	for _, disableDiff := range in.cascadeOptions() {
		procs, _ := in.chooseProcs(in.uncertainTuples(disableDiff))
		for _, b := range batchGrid {
			kn := Knobs{
				BatchSize:   b,
				Procs:       procs,
				Coalesce:    coalesce,
				UseMux:      mux,
				DisableDiff: disableDiff,
			}
			cands = append(cands, Candidate{Knobs: kn, Pred: Predict(in, kn)})
		}
	}
	best := 0
	for i := 1; i < len(cands); i++ {
		if better(cands[i], cands[best]) {
			best = i
		}
	}
	cands[best].Chosen = true
	return cands
}

// better orders candidates: lower predicted total, then the depth-3
// cascade (keep the filter), then the smaller batch — a deterministic
// tie-break so planner output never depends on grid order.
func better(a, b Candidate) bool {
	if a.Pred.TotalMS != b.Pred.TotalMS {
		return a.Pred.TotalMS < b.Pred.TotalMS
	}
	if a.Knobs.DisableDiff != b.Knobs.DisableDiff {
		return !a.Knobs.DisableDiff
	}
	return a.Knobs.BatchSize < b.Knobs.BatchSize
}

// cheapest is the chosen entry of the candidate grid: its knobs and
// prediction, which is all executing a plan needs.
func cheapest(in Input) Candidate {
	for _, c := range Enumerate(in) {
		if c.Chosen {
			return c
		}
	}
	panic("planner: Enumerate marked no candidate")
}

// Choose runs the greedy phases and returns the chosen candidate with
// its per-phase reasoning filled in — the form EXPLAIN renders.
func Choose(in Input) Candidate {
	chosen := cheapest(in)
	kn := chosen.Knobs
	var why []string
	switch {
	case in.HasIndex:
		why = append(why, "cascade inherited: Phase 1 already paid by the index, ingest knobs are fixed")
	case in.CascadeFixed:
		why = append(why, fmt.Sprintf("cascade pinned by the caller: %s", CascadeName(kn.DisableDiff)))
	default:
		other := Predict(in, withDisableDiff(kn, !kn.DisableDiff))
		why = append(why, fmt.Sprintf("cascade %s: %.0f ms predicted vs %.0f ms at %s",
			CascadeName(kn.DisableDiff), chosen.Pred.TotalMS, other.TotalMS, CascadeName(!kn.DisableDiff)))
	}
	why = append(why, fmt.Sprintf("batch %d: %d expected confirmations in %d launches — %.0f ms launch overhead vs %.0f ms at b=1",
		kn.BatchSize, chosen.Pred.Cleaned, chosen.Pred.Launches, chosen.Pred.LaunchMS,
		Predict(in, withBatch(kn, 1)).LaunchMS))
	_, procsWhy := in.chooseProcs(in.uncertainTuples(kn.DisableDiff))
	why = append(why, "procs: "+procsWhy)
	_, _, servingWhy := in.servingKnobs()
	why = append(why, servingWhy...)
	chosen.Why = why
	return chosen
}

// SetInput is a coordinated statement set to price jointly: one
// script's units that will execute together over shared relations.
type SetInput struct {
	// Units are the per-unit planner inputs, in statement order. Each
	// unit's Concurrency field is ignored — the set derives one value.
	Units []Input
	// Shared groups unit indices bound to one relation (same video,
	// frames, UDF, seed): each group pays its Phase 1 ingest once and
	// shares confirmations through one session cache. Units absent from
	// every group are priced alone. Groups must not overlap.
	Shared [][]int
}

// SetPlan is the jointly priced outcome: one serving budget for the
// whole set plus per-unit chosen candidates.
type SetPlan struct {
	// Concurrency is the number of units the set runs.
	Concurrency int
	// Coalesce/UseMux is the one scheduling budget every unit of the set
	// shares — scheduling only, never results or charges.
	Coalesce bool
	UseMux   bool
	// Units are the chosen candidates, aligned with SetInput.Units.
	Units []Candidate
	// IndependentMS prices the set as isolated runs: every unit pays its
	// own ingest and full confirmation bill.
	IndependentMS float64
	// TotalMS prices the coordinated execution: each shared group pays
	// one ingest, and its confirmation bill is charged once (the
	// group's widest member) instead of per member.
	TotalMS float64
	// SharedIngestMS and SharedConfirmMS break down the predicted
	// saving: ingest stages bound once instead of per unit, and
	// confirmations shared through the group overlay.
	SharedIngestMS  float64
	SharedConfirmMS float64
	// Why explains the set-level decisions.
	Why []string
}

// SavedMS is the predicted total saving of coordinated over independent
// execution.
func (sp SetPlan) SavedMS() float64 { return sp.IndependentMS - sp.TotalMS }

// ChooseSet prices a statement set jointly. Per-unit knobs (batch,
// cascade, procs) are chosen per unit as usual — knobs and prediction
// only: this runs on every script execution, and a unit's reasoning is
// rendered by Choose where a plan is explained — but the serving knobs
// are decided once for the whole set from its own width — no caller
// hint. The shared
// groups are priced under the coalesced-group contract: one ingest per
// relation, and each group's confirmation bill charged once (later
// members ride the shared overlay; the golden suite locks the
// bit-identity of that sharing, this prices it).
func ChooseSet(in SetInput) SetPlan {
	sp := SetPlan{Concurrency: len(in.Units)}
	if sp.Concurrency > 1 {
		sp.Coalesce, sp.UseMux = true, true
		sp.Why = append(sp.Why, fmt.Sprintf(
			"one budget: %d units → coalesce on, mux on (scheduling only; results and charges identical)",
			len(in.Units)))
	} else {
		sp.Why = append(sp.Why, "one budget: lone unit → coalesce off, mux off")
	}

	grouped := make(map[int]bool)
	for i := range in.Units {
		u := in.Units[i]
		u.Concurrency = sp.Concurrency
		c := cheapest(u)
		sp.Units = append(sp.Units, c)
		sp.IndependentMS += c.Pred.TotalMS
		grouped[i] = false
	}
	// Shared groups: one ingest, one confirmation bill (the widest
	// member's), every member's own select pass.
	for _, group := range in.Shared {
		if len(group) == 0 {
			continue
		}
		var ingest, maxConfirm, sumIngest, sumConfirm float64
		for _, i := range group {
			grouped[i] = true
			p := sp.Units[i].Pred
			if p.Phase1MS > ingest {
				ingest = p.Phase1MS
			}
			if p.ConfirmMS > maxConfirm {
				maxConfirm = p.ConfirmMS
			}
			sumIngest += p.Phase1MS
			sumConfirm += p.ConfirmMS
			sp.TotalMS += p.SelectMS
		}
		sp.TotalMS += ingest + maxConfirm
		sp.SharedIngestMS += sumIngest - ingest
		sp.SharedConfirmMS += sumConfirm - maxConfirm
		if len(group) > 1 {
			sp.Why = append(sp.Why, fmt.Sprintf(
				"%d units share one relation: ingest bound once (%.0f ms saved), confirmations charged once (%.0f ms saved)",
				len(group), sumIngest-ingest, sumConfirm-maxConfirm))
		}
	}
	for i, c := range sp.Units {
		if !grouped[i] {
			sp.TotalMS += c.Pred.TotalMS
		}
	}
	return sp
}

func withBatch(kn Knobs, b int) Knobs        { kn.BatchSize = b; return kn }
func withDisableDiff(kn Knobs, d bool) Knobs { kn.DisableDiff = d; return kn }

// CascadeName renders a cascade depth for reports.
func CascadeName(disableDiff bool) string {
	if disableDiff {
		return "decode→proxy (depth 2)"
	}
	return "decode→diff→proxy (depth 3)"
}
