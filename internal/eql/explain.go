package eql

import (
	"fmt"
	"strings"

	"github.com/everest-project/everest/internal/eql/planner"
	"github.com/everest-project/everest/internal/phase1"
)

// plannerInput assembles the planner's view of a bound unit from the
// plan its Config compiles to, defaults resolved as the engine will run
// them. The planned label count is Phase 1's own sizing, so cost
// predictions price the label bill the engine will actually pay (a
// video too short to ingest plans zero labels; running it reports the
// error). Callers holding an index refine the input with measured
// Phase 1 statistics.
func plannerInput(u *Unit) planner.Input {
	p := u.Config.Plan()
	n := u.Source.NumFrames()
	train, hold, _ := phase1.SampleCounts(n, p.Ingest)
	return planner.Input{
		Frames:           n,
		K:                p.K,
		Window:           p.Window.Size,
		Stride:           p.Window.Stride,
		WindowSampleFrac: p.Window.SampleFrac,
		UDFFrameMS:       u.UDF.OracleCostMS(p.Cost),
		Cost:             p.Cost,
		TrainSamples:     train + hold,
	}
}

// candidateTable renders a planner enumeration as the table EXPLAIN and
// EXPLAIN ANALYZE share.
func candidateTable(b *strings.Builder, cands []planner.Candidate) {
	b.WriteString("  candidates (batch × cascade, predicted §3.5 cost):\n")
	fmt.Fprintf(b, "    %5s  %-26s  %8s  %12s  %s\n", "batch", "cascade", "launches", "predicted-ms", "")
	for _, c := range cands {
		mark := ""
		if c.Chosen {
			mark = "← chosen"
		}
		fmt.Fprintf(b, "    %5d  %-26s  %8d  %12.0f  %s\n",
			c.Knobs.BatchSize, planner.CascadeName(c.Knobs.DisableDiff),
			c.Pred.Launches, c.Pred.TotalMS, mark)
	}
}

// Explain parses and binds a single-unit EQL statement (with or without
// the EXPLAIN keyword) and renders the execution plan without running
// it: the bound dataset and UDF, the query shape (frames vs windows,
// stride, bound kind, scale-out degree), and the planner's knob choices
// with their predicted costs under the simulated cost model — the
// candidate table, the chosen batch size and cascade depth, the Phase 1
// bill, the expected Phase 2 oracle bill, and the naive scan-and-test
// cost the optimizer avoids. Phase 2's actual bill depends on the score
// distribution; EXPLAIN ANALYZE (Analyze) runs the chosen plan and
// reports predicted vs actual.
func Explain(src string) (string, error) {
	q, err := Parse(src)
	if err != nil {
		return "", err
	}
	u, err := bindOne(q)
	if err != nil {
		return "", err
	}
	return explainUnit(q, u, 1), nil
}

// explainUnit renders the full single-unit plan of a bound statement,
// planned for the given expected concurrency.
func explainUnit(q *Statement, u *Unit, concurrency int) string {
	in := plannerInput(u)
	in.Concurrency = concurrency
	if u.Workers > 1 {
		in.PinProcs = u.Workers
	}
	chosen := planner.Choose(in)
	cands := planner.Enumerate(in)

	p := u.Config.Plan()
	var b strings.Builder
	fmt.Fprintf(&b, "plan: everest top-%d", q.K)
	if p.Window.Enabled() {
		fmt.Fprintf(&b, " windows(size=%d stride=%d", p.Window.Size, p.Window.Stride)
		if p.Window.Overlapping() {
			b.WriteString(" overlapping → union bound")
		}
		b.WriteString(")")
	} else {
		b.WriteString(" frames")
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  dataset   %s (%d frames, %d fps)\n", u.Source.Name(), in.Frames, u.Source.FPS())
	fmt.Fprintf(&b, "  rank by   %s\n", u.UDF.Name())
	fmt.Fprintf(&b, "  guarantee Pr(result = exact top-k) ≥ %.2f, certain-result condition\n", p.Threshold)
	if u.Workers > 1 {
		fmt.Fprintf(&b, "  scale-out %d workers (partitioned phase 1, parallel cleaning)\n", u.Workers)
	}
	fmt.Fprintf(&b, "  phase 1   label ≈%d samples + train grid + cascade %s ≈ %.0f ms\n",
		in.TrainSamples, planner.CascadeName(chosen.Knobs.DisableDiff), chosen.Pred.Phase1MS)
	fmt.Fprintf(&b, "  phase 2   batch %d → ≈%d confirmations in %d launches ≈ %.0f ms (bill depends on score skew; typically <2%% of frames)\n",
		chosen.Knobs.BatchSize, chosen.Pred.Cleaned, chosen.Pred.Launches, chosen.Pred.ConfirmMS)
	fmt.Fprintf(&b, "  baseline  scan-and-test would cost %.0f ms\n",
		in.Cost.LabelMS(in.Frames, in.UDFFrameMS))
	candidateTable(&b, cands)
	b.WriteString("  reasons:\n")
	for _, w := range chosen.Why {
		fmt.Fprintf(&b, "    - %s\n", w)
	}
	return b.String()
}

// ExplainScript parses and binds a whole script and renders its
// coordinated plan graph without running it: every statement's units,
// the relations they share, the one serving budget the set planner
// chose, and the predicted coordinated-vs-independent cost with the
// shared-work breakdown.
func ExplainScript(src string) (string, error) {
	script, err := ParseScript(src)
	if err != nil {
		return "", err
	}
	sp, err := BindScript(script)
	if err != nil {
		return "", err
	}
	return explainScriptPlan(sp), nil
}

// explainScriptPlan renders a bound script's plan graph with the joint
// budget and shared-work cost table.
func explainScriptPlan(sp *ScriptPlan) string {
	// Every relation-bound unit participates: the whole script is being
	// explained, so EXPLAIN statements inside it price like the rest.
	var units []*Unit
	for _, u := range sp.Units {
		if u.Rel != nil {
			units = append(units, u)
		}
	}
	setPlan := planner.ChooseSet(setInput(sp, units))
	chosen := make(map[*Unit]planner.Candidate, len(units))
	for i, u := range units {
		chosen[u] = setPlan.Units[i]
	}

	var b strings.Builder
	fmt.Fprintf(&b, "script: %d statement(s), %d plan unit(s), %d relation(s), %d shared\n",
		len(sp.Statements), len(sp.Units), len(sp.Relations), sp.SharedUnits())
	b.WriteString(budgetLine(setPlan))
	for si, stp := range sp.Statements {
		fmt.Fprintf(&b, "  [%d] %s\n", si+1, stp.Stmt.String())
		for _, u := range stp.Units {
			fmt.Fprintf(&b, "      %s\n", unitLine(u, chosen[u]))
		}
		if len(stp.Stmt.Predicates) > 1 {
			fmt.Fprintf(&b, "      %s\n", andLine)
		}
	}
	if sp.SharedUnits() > 0 {
		b.WriteString("  shared work:\n")
		for _, rel := range sp.Relations {
			if len(rel.Units) > 1 {
				fmt.Fprintf(&b, "    relation %s: %d units — ingest bound once, overlapping confirmations charged once\n",
					rel.Key.String(), len(rel.Units))
			}
		}
	}
	fmt.Fprintf(&b, "  totals: coordinated ≈%.0f ms vs independent ≈%.0f ms (saved ≈%.0f ms: ingest %.0f, confirmations %.0f)\n",
		setPlan.TotalMS, setPlan.IndependentMS, setPlan.SavedMS(),
		setPlan.SharedIngestMS, setPlan.SharedConfirmMS)
	for _, w := range setPlan.Why {
		fmt.Fprintf(&b, "  - %s\n", w)
	}
	return b.String()
}

// andLine describes the AND-combination of a multi-predicate statement.
const andLine = "AND: per source, IDs in every predicate's top-K, ordered by the first predicate's rank"

// unitLine renders one unit of a plan listing from the unit's own data:
// scale-out units run standalone, relation-bound units show the chosen
// knobs c and who they share with, and what is left — a STREAM unit —
// is a follower registration.
func unitLine(u *Unit, c planner.Candidate) string {
	head := fmt.Sprintf("%s rank-by %s: ", u.Source.Name(), u.UDF.Name())
	switch {
	case u.Workers > 1:
		return head + fmt.Sprintf("scale-out %d workers, runs standalone", u.Workers)
	case u.Rel != nil:
		shared := ""
		if len(u.Rel.Units) > 1 {
			shared = fmt.Sprintf("  [shares relation %s with %d more]", u.Rel.Key.String(), len(u.Rel.Units)-1)
		}
		return head + fmt.Sprintf("batch %d, cascade %s, predicted ≈%.0f ms%s",
			c.Knobs.BatchSize, planner.CascadeName(c.Knobs.DisableDiff), c.Pred.TotalMS, shared)
	default:
		return head + "continuous — compiles to a follower registration on the attached live stream"
	}
}

// budgetLine renders the set planner's one-budget choice.
func budgetLine(setPlan planner.SetPlan) string {
	return fmt.Sprintf("  one budget: concurrency %d, coalesce %s, mux %s\n",
		setPlan.Concurrency, onOff(setPlan.Coalesce), onOff(setPlan.UseMux))
}

func onOff(v bool) string {
	if v {
		return "on"
	}
	return "off"
}

// explainStatement renders an EXPLAIN statement inside a script, planned
// at the script's concurrency: single-unit statements get the full
// single-statement rendering plus the script's budget; multi-unit
// statements a per-unit plan listing.
func explainStatement(stp *StatementPlan, setPlan planner.SetPlan) string {
	stmt := stp.Stmt
	if stmt.Stream {
		return fmt.Sprintf("plan: continuous query — compiles to %d follower registration(s) on the attached live stream; no batch plan\n",
			len(stp.Units))
	}
	if len(stp.Units) == 1 {
		u := stp.Units[0]
		text := explainUnit(stmt, u, setPlan.Concurrency)
		if u.Rel != nil && len(u.Rel.Units) > 1 {
			text += fmt.Sprintf("  shares relation %s with %d more unit(s) in this script\n",
				u.Rel.Key.String(), len(u.Rel.Units)-1)
		}
		return text + budgetLine(setPlan)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d coordinated units (%d sources × %d predicates)\n",
		len(stp.Units), len(stmt.Sources), len(stmt.Predicates))
	for i, u := range stp.Units {
		var c planner.Candidate
		if u.Rel != nil {
			in := plannerInput(u)
			in.Concurrency = setPlan.Concurrency
			c = planner.Choose(in)
		}
		fmt.Fprintf(&b, "  [%d] %s\n", i+1, unitLine(u, c))
	}
	if len(stmt.Predicates) > 1 {
		fmt.Fprintf(&b, "  %s\n", andLine)
	}
	b.WriteString(budgetLine(setPlan))
	return b.String()
}
