package eql

import (
	"cmp"
	"fmt"
	"strings"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/eql/planner"
	"github.com/everest-project/everest/internal/simclock"
)

// AnalyzeOptions tunes an EXPLAIN ANALYZE run.
type AnalyzeOptions struct {
	// Procs pins the worker count (0 lets the planner choose). Wall-clock
	// only: results and simulated charges are identical for any value.
	Procs int
}

// PhaseRow is one line of the predicted-vs-actual cost table.
type PhaseRow struct {
	Phase       string
	PredictedMS float64
	ActualMS    float64
}

// AnalyzeReport is the result of an EXPLAIN ANALYZE: the planner's
// choice with its reasoning and candidate table, plus the measured
// execution of the chosen plan.
type AnalyzeReport struct {
	// Statement echoes the analyzed EQL text.
	Statement string
	// Config is the final engine configuration the planner chose — the
	// exact Config a caller would hand-set to reproduce the run
	// bit-identically.
	Config everest.Config
	// Chosen is the winning candidate with per-phase reasoning.
	Chosen planner.Candidate
	// Candidates is the priced enumeration (post-ingest: the cascade is
	// fixed, so the grid ranges over batch sizes).
	Candidates []planner.Candidate
	// IngestMS is the measured Phase 1 cost (0 when the session's index
	// predates this call and nothing was ingested here).
	IngestMS float64
	// Result is the executed query's answer.
	Result *everest.Result
	// Phases is the predicted-vs-actual simulated cost per phase.
	Phases []PhaseRow
	// PredictedLaunches/Cleaned vs the engine's counters.
	PredictedLaunches int
	ActualLaunches    int
	PredictedCleaned  int
	ActualCleaned     int
}

// String renders the report.
func (r *AnalyzeReport) String() string {
	var b strings.Builder
	stmt := strings.TrimSpace(r.Statement)
	if !strings.HasPrefix(strings.ToUpper(stmt), "EXPLAIN") {
		stmt = "EXPLAIN ANALYZE " + stmt
	}
	fmt.Fprintf(&b, "%s\n", stmt)
	b.WriteString("  chosen knobs:\n")
	// Coalesce leads: it lives on Config, selecting the Session
	// submission path, not on the engine plan.
	knobs := append([]engine.Knob{{Name: "coalesce", Value: fmt.Sprintf("%t", r.Config.Coalesce)}}, r.Config.Plan().Knobs()...)
	for _, k := range knobs {
		fmt.Fprintf(&b, "    %-20s %s\n", k.Name, k.Value)
	}
	b.WriteString("  reasons:\n")
	for _, w := range r.Chosen.Why {
		fmt.Fprintf(&b, "    - %s\n", w)
	}
	candidateTable(&b, r.Candidates)
	b.WriteString("  predicted vs actual (simulated ms):\n")
	fmt.Fprintf(&b, "    %-28s  %12s  %12s\n", "phase", "predicted", "actual")
	for _, row := range r.Phases {
		fmt.Fprintf(&b, "    %-28s  %12.1f  %12.1f\n", row.Phase, row.PredictedMS, row.ActualMS)
	}
	fmt.Fprintf(&b, "  oracle launches  predicted %d, actual %d\n", r.PredictedLaunches, r.ActualLaunches)
	fmt.Fprintf(&b, "  confirmations    predicted %d, actual %d\n", r.PredictedCleaned, r.ActualCleaned)
	if res := r.Result; res != nil {
		fmt.Fprintf(&b, "  result           top-%d ids=%v confidence=%.4f\n", len(res.IDs), res.IDs, res.Confidence)
	}
	return b.String()
}

// Analyze parses and binds a single-unit EQL statement (with or without
// the EXPLAIN ANALYZE prefix), lets the planner choose every engine
// knob, runs the chosen plan, and reports predicted vs actual simulated
// cost per phase. It ingests its own index — paying Phase 1 under the
// planner's cascade and procs choices — so the report covers both
// phases; inside a ScriptSession an EXPLAIN ANALYZE statement runs on
// its relation's existing session instead and plans Phase 2 only.
func Analyze(src string, opt AnalyzeOptions) (*AnalyzeReport, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if q.Parallel > 1 {
		return nil, fmt.Errorf("eql: EXPLAIN ANALYZE does not support PARALLEL scale-out; the planner sets procs itself")
	}
	u, err := bindOne(q)
	if err != nil {
		return nil, err
	}

	// Pre-ingest planning: the cascade depth and worker count must be
	// fixed before Phase 1 runs.
	in := plannerInput(u)
	in.PinProcs = opt.Procs
	pre := planner.Choose(in)
	cfg := u.Config
	cfg.DisableDiff = pre.Knobs.DisableDiff
	cfg.Procs = pre.Knobs.Procs

	ix, err := everest.BuildIndex(u.Source, u.UDF, cfg)
	if err != nil {
		return nil, err
	}
	sess, err := everest.NewSession(ix, u.Source, u.UDF)
	if err != nil {
		return nil, err
	}
	rep, err := analyzeOn(u, ix, sess, cfg, opt)
	if err != nil {
		return nil, err
	}
	rep.Statement = src
	rep.IngestMS = ix.IngestMS()
	return rep, nil
}

// analyzeOn runs the post-ingest half of EXPLAIN ANALYZE against an
// existing index and session: Phase 1 is already paid, so the planner
// inherits the cascade, refines its input with the index's measured
// Phase 1 statistics, chooses the Phase 2 knobs, executes on the
// session, and assembles the report (the caller fills in Statement).
// The analyzed query runs alone, so it is planned as a lone query and
// the serving knobs (coalesce, mux) stay off.
func analyzeOn(u *Unit, ix *everest.Index, sess *everest.Session, cfg everest.Config, opt AnalyzeOptions) (*AnalyzeReport, error) {
	info := ix.Info()
	in := plannerInput(u)
	in.TrainSamples = info.TrainSamples + info.HoldoutSamples
	in.Retained = info.Retained
	in.Certain = ix.CertainFrames()
	in.HasIndex = true
	in.CascadeFixed = true
	in.DisableDiff = cfg.DisableDiff
	// Procs was fixed before ingest (or by the caller); keep it stable so
	// the reported Config reproduces the whole run, ingest included.
	in.PinProcs = cmp.Or(cfg.Procs, opt.Procs)

	chosen := planner.Choose(in)
	cands := planner.Enumerate(in)
	cfg.BatchSize = chosen.Knobs.BatchSize
	cfg.Procs = chosen.Knobs.Procs

	res, err := sess.Query(cfg)
	if err != nil {
		return nil, err
	}

	// Predicted ingest re-priced from the measured Phase 1 statistics, so
	// the phase-1 row isolates the pricing model from tuple estimation.
	ingestIn := in
	ingestIn.HasIndex = false
	ingestPred := planner.Predict(ingestIn, chosen.Knobs).Phase1MS

	selectActual := res.Clock.PhaseMS(simclock.PhaseSelect) + res.Clock.PhaseMS(simclock.PhaseTopkProb)
	confirmActual := res.Clock.PhaseMS(simclock.PhaseConfirm)
	rep := &AnalyzeReport{
		Config:     cfg,
		Chosen:     chosen,
		Candidates: cands,
		Result:     res,
		Phases: []PhaseRow{
			{Phase: "phase1 (ingest)", PredictedMS: ingestPred, ActualMS: ix.IngestMS()},
			{Phase: "phase2/select+topk-prob", PredictedMS: chosen.Pred.SelectMS, ActualMS: selectActual},
			{Phase: "phase2/confirm-by-oracle", PredictedMS: chosen.Pred.ConfirmMS, ActualMS: confirmActual},
			{Phase: "query total (phase 2)", PredictedMS: chosen.Pred.SelectMS + chosen.Pred.ConfirmMS, ActualMS: res.Clock.TotalMS()},
		},
		PredictedLaunches: chosen.Pred.Launches,
		ActualLaunches:    res.EngineStats.OracleCalls,
		PredictedCleaned:  chosen.Pred.Cleaned,
		ActualCleaned:     res.EngineStats.Cleaned,
	}
	return rep, nil
}
