package eql

import (
	"fmt"
	"sort"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/eql/planner"
)

// ScriptOptions tunes script execution.
type ScriptOptions struct {
	// Procs pins the engine worker count for every unit (0 = engine
	// default). Wall-clock only: results and simulated charges are
	// bit-identical for any value.
	Procs int
}

// ScriptSession executes EQL scripts over persistent shared sub-plans:
// one ingestion index + session per (dataset, frames, UDF, seed)
// relation, built lazily on first use and reused by every later
// statement — in the same script or a later Exec call. It is the EQL
// layer's serving surface: the REPL and `cmd/everest -script` both run
// on one ScriptSession. Not safe for concurrent use.
//
// Script execution contract (locked by the script golden test):
//
//   - Statements bound to one relation execute in statement order as
//     one coalesced scheduler group over the relation's shared cache
//     (Scheduler.SubmitGroup), so results AND per-statement simulated
//     charges are bit-identical to executing the statements one at a
//     time in script order — coalescing changes who pays, never what
//     anyone gets.
//   - Overlapping confirmations are charged once to the first statement
//     that needs them, so a script's total oracle bill is strictly
//     below the sum of independent single-statement runs whenever
//     statements share a relation.
//   - Relations are independent label domains (different video or UDF),
//     so their groups never interact; the executor runs them in
//     first-appearance order.
type ScriptSession struct {
	entries map[RelationKey]*scriptEntry
	live    map[string]*everest.LiveStream

	// OnIngestStart/OnIngestDone, when set, observe relation ingests
	// (the REPL's "(ingesting …)" messages).
	OnIngestStart func(dataset, udf string)
	OnIngestDone  func(dataset, udf string, ingestMS float64)
}

type scriptEntry struct {
	ix   *everest.Index
	sess *everest.Session
}

// NewScriptSession returns an empty script session.
func NewScriptSession() *ScriptSession {
	return &ScriptSession{
		entries: make(map[RelationKey]*scriptEntry),
		live:    make(map[string]*everest.LiveStream),
	}
}

// AttachLive registers a live stream under a source name: `SELECT
// STREAM … FROM name …` statements compile to follower registrations
// on it. The stream stays owned by the caller (Append/Seal/Close).
func (ss *ScriptSession) AttachLive(name string, ls *everest.LiveStream) {
	ss.live[name] = ls
}

// UnitResult is one executed plan unit of a statement.
type UnitResult struct {
	// Dataset and Predicate identify the unit within its statement; FPS
	// is the source's frame rate (for rendering frame times).
	Dataset   string
	Predicate string
	FPS       int
	// Result is the unit's answer; nil when the unit failed.
	Result *everest.Result
}

// AndResult is the AND-combination of a multi-predicate statement for
// one source: the IDs present in every predicate's top-K, ordered by
// the first predicate's ranking.
type AndResult struct {
	Dataset string
	IDs     []int
}

// StatementResult is one statement's outcome within a script.
type StatementResult struct {
	// Stmt is the statement AST; Text its canonical rendering.
	Stmt *Statement
	Text string
	// Explain holds the rendered plan for EXPLAIN statements (which do
	// not execute); Analyze the report for EXPLAIN ANALYZE statements.
	Explain string
	Analyze *AnalyzeReport
	// Units are the executed units in (source-major, predicate-minor)
	// order; empty for EXPLAIN and STREAM statements.
	Units []*UnitResult
	// And is the per-source AND-combination, filled only for statements
	// with more than one predicate.
	And []AndResult
	// Followers are the continuous-query registrations of a STREAM
	// statement, one per predicate.
	Followers []*everest.LiveFollower
}

// ScriptResult is the outcome of executing a script.
type ScriptResult struct {
	Statements []*StatementResult
	// Relations and SharedUnits describe the coordinated plan graph:
	// distinct sub-plans bound, and units beyond the first on each (the
	// ingest stages the script did not repeat).
	Relations   int
	SharedUnits int
	// Concurrency, Coalesce and UseMux echo the joint serving budget the
	// set planner chose (the script's runnable unit count).
	Concurrency int
	Coalesce    bool
	UseMux      bool
	// PredictedSavedMS is the planner's forecast of what coordination
	// saves over independent runs.
	PredictedSavedMS float64
	// OracleCalls, Cleaned and TotalMS sum the executed units' charges.
	OracleCalls int
	Cleaned     int
	TotalMS     float64
}

// Exec parses and executes a script with default options.
func (ss *ScriptSession) Exec(src string) (*ScriptResult, error) {
	return ss.ExecWith(src, ScriptOptions{})
}

// ExecWith parses and executes a script.
func (ss *ScriptSession) ExecWith(src string, opt ScriptOptions) (*ScriptResult, error) {
	script, err := ParseScript(src)
	if err != nil {
		return nil, err
	}
	return ss.ExecScript(script, opt)
}

// ExecScript binds and executes a parsed script. Binding is
// all-or-nothing; execution failures cost only the failing unit (its
// slot stays nil) and the first error is returned alongside the
// results, mirroring Session.QueryBatch.
func (ss *ScriptSession) ExecScript(script *Script, opt ScriptOptions) (*ScriptResult, error) {
	sp, err := BindScript(script)
	if err != nil {
		return nil, err
	}

	res := &ScriptResult{
		Relations:   len(sp.Relations),
		SharedUnits: sp.SharedUnits(),
	}
	for _, stp := range sp.Statements {
		res.Statements = append(res.Statements, &StatementResult{
			Stmt: stp.Stmt,
			Text: stp.Stmt.String(),
		})
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// The units that run on a relation's session — queries and EXPLAIN
	// ANALYZE — are the set planned under one budget; their relations
	// are ensured (one index + session each) in first-appearance order.
	// A relation only explained statements touch is never ingested.
	var runnable []*Unit
	needed := make(map[*Relation]bool)
	for _, u := range sp.Units {
		switch u.Kind {
		case KindQuery, KindAnalyze:
			runnable = append(runnable, u)
			needed[u.Rel] = true
		}
	}
	entries := make(map[*Relation]*scriptEntry, len(needed))
	for _, rel := range sp.Relations {
		if !needed[rel] {
			continue
		}
		ent, err := ss.entryFor(rel, opt)
		if err != nil {
			return res, err
		}
		entries[rel] = ent
	}

	// One scheduling budget for the whole set: concurrency is the
	// script's own runnable unit count — never a caller hint.
	setPlan := planner.ChooseSet(setInput(sp, runnable))
	res.Concurrency = setPlan.Concurrency
	res.Coalesce = setPlan.Coalesce
	res.UseMux = setPlan.UseMux
	res.PredictedSavedMS = setPlan.SavedMS()

	// Execute each relation's units in statement order as coalesced
	// groups; EXPLAIN ANALYZE units break the group at their position so
	// the whole per-relation sequence stays bit-identical to serial
	// statement order.
	for _, rel := range sp.Relations {
		if ent := entries[rel]; ent != nil {
			runRelation(rel, ent, res, setPlan, opt, keep)
		}
	}

	// Everything else is per statement: render, run standalone, or
	// register — then the AND-combinations and totals.
	for si, stp := range sp.Statements {
		sr := res.Statements[si]
		switch stp.Stmt.Kind() {
		case KindExplain:
			sr.Explain = explainStatement(stp, setPlan)
		case KindScaleOut:
			// Scale-out units bypass the session machinery.
			for _, u := range stp.Units {
				r, err := runScaleOut(u)
				keep(err)
				setUnitResult(sr, u, r)
			}
		case KindFollow:
			keep(ss.registerFollowers(stp, sr))
		}
		sr.And = andCombine(sr)
		for _, ur := range sr.Units {
			if ur != nil {
				res.charge(ur.Result)
			}
		}
		if sr.Analyze != nil {
			res.charge(sr.Analyze.Result)
		}
	}
	return res, firstErr
}

// charge adds one executed result's bill to the script's totals.
func (res *ScriptResult) charge(r *everest.Result) {
	if r != nil {
		res.OracleCalls += r.EngineStats.OracleCalls
		res.Cleaned += r.EngineStats.Cleaned
		res.TotalMS += r.Clock.TotalMS()
	}
}

// setInput assembles the joint planner's view of a set of
// relation-bound units: the units in the given order, grouped by the
// relations they share.
func setInput(sp *ScriptPlan, units []*Unit) planner.SetInput {
	var in planner.SetInput
	groups := make(map[*Relation][]int)
	for i, u := range units {
		in.Units = append(in.Units, plannerInput(u))
		groups[u.Rel] = append(groups[u.Rel], i)
	}
	for _, rel := range sp.Relations {
		if g := groups[rel]; len(g) > 0 {
			in.Shared = append(in.Shared, g)
		}
	}
	return in
}

// entryFor returns the session for a relation, ingesting its index on
// first use. Entries persist across Exec calls — the script session's
// relations are its long-lived shared sub-plans.
func (ss *ScriptSession) entryFor(rel *Relation, opt ScriptOptions) (*scriptEntry, error) {
	if ent, ok := ss.entries[rel.Key]; ok {
		return ent, nil
	}
	cfg := rel.Units[0].Config
	if opt.Procs > 0 {
		cfg.Procs = opt.Procs
	}
	if ss.OnIngestStart != nil {
		ss.OnIngestStart(rel.Source.Name(), rel.UDF.Name())
	}
	ix, err := everest.BuildIndex(rel.Source, rel.UDF, cfg)
	if err != nil {
		return nil, err
	}
	sess, err := everest.NewSession(ix, rel.Source, rel.UDF)
	if err != nil {
		return nil, err
	}
	ent := &scriptEntry{ix: ix, sess: sess}
	ss.entries[rel.Key] = ent
	if ss.OnIngestDone != nil {
		ss.OnIngestDone(rel.Source.Name(), rel.UDF.Name(), ix.IngestMS())
	}
	return ent, nil
}

// runRelation executes one relation's units in statement order:
// consecutive query units form one coalesced group (SubmitGroup over
// the shared cache — bit-identical to running them serially), and an
// EXPLAIN ANALYZE unit flushes the pending group and runs alone at its
// exact position (planned as a lone query), so the relation's full
// sequence equals serial statement order. Explained units are no case
// of the switch: they do nothing.
// Failures go to keep; the failing unit's slot stays nil.
func runRelation(rel *Relation, ent *scriptEntry, res *ScriptResult, setPlan planner.SetPlan, opt ScriptOptions, keep func(error)) {
	var pending []*Unit
	flush := func() {
		if len(pending) == 0 {
			return
		}
		cfgs := make([]everest.Config, len(pending))
		for i, u := range pending {
			cfg := u.Config
			if opt.Procs > 0 {
				cfg.Procs = opt.Procs
			}
			// The group is pre-formed, so Coalesce routes it through
			// SubmitGroup. UseMux is the set's one budget.
			cfg.Coalesce = true
			cfg.UseMux = setPlan.UseMux
			cfgs[i] = cfg
		}
		results, err := ent.sess.QueryBatch(cfgs)
		keep(err)
		for i, u := range pending {
			var r *everest.Result
			if results != nil {
				r = results[i]
			}
			setUnitResult(res.Statements[u.Stmt], u, r)
		}
		pending = pending[:0]
	}

	for _, u := range rel.Units {
		switch u.Kind {
		case KindQuery:
			pending = append(pending, u)
		case KindAnalyze:
			flush()
			sr := res.Statements[u.Stmt]
			rep, err := analyzeOn(u, ent.ix, ent.sess, u.Config, AnalyzeOptions{Procs: opt.Procs})
			if err != nil {
				keep(err)
				continue
			}
			rep.Statement = sr.Text
			sr.Analyze = rep
		}
	}
	flush()
}

// registerFollowers compiles a STREAM statement to follower
// registrations on the attached live stream, each at segment cadence
// (no staleness bound).
func (ss *ScriptSession) registerFollowers(stp *StatementPlan, sr *StatementResult) error {
	for _, u := range stp.Units {
		ref := stp.Stmt.Sources[u.SourceIdx]
		ls, ok := ss.live[ref.Name]
		if !ok {
			return &ParseError{Pos: ref.Pos,
				Msg: fmt.Sprintf("no live stream attached as %q (ScriptSession.AttachLive)", ref.Name)}
		}
		fol, err := ls.Follow(u.Config, 0, nil)
		if err != nil {
			return err
		}
		sr.Followers = append(sr.Followers, fol)
	}
	return nil
}

// setUnitResult records a unit's outcome at its slot in the statement's
// result, growing the slice to the slot on first use.
func setUnitResult(sr *StatementResult, u *Unit, r *everest.Result) {
	for len(sr.Units) <= u.Slot {
		sr.Units = append(sr.Units, nil)
	}
	sr.Units[u.Slot] = &UnitResult{
		Dataset:   u.Source.Name(),
		Predicate: u.UDF.Name(),
		FPS:       u.Source.FPS(),
		Result:    r,
	}
}

// andCombine computes the AND-combination of a multi-predicate
// statement: per source, the IDs present in every predicate's top-K,
// ordered by the first predicate's ranking. It is deterministic pure
// post-processing over the per-unit answers — the engine's per-unit
// guarantees are untouched.
func andCombine(sr *StatementResult) []AndResult {
	stmt := sr.Stmt
	if stmt == nil || len(stmt.Predicates) < 2 || len(sr.Units) == 0 {
		return nil
	}
	np := len(stmt.Predicates)
	var out []AndResult
	for si := range stmt.Sources {
		base := si * np
		if base+np > len(sr.Units) {
			return out
		}
		first := sr.Units[base]
		if first == nil || first.Result == nil {
			continue
		}
		ok := true
		inAll := make(map[int]int, len(first.Result.IDs)) // id -> count of predicate sets containing it
		for _, id := range first.Result.IDs {
			inAll[id] = 1
		}
		for p := 1; p < np; p++ {
			ur := sr.Units[base+p]
			if ur == nil || ur.Result == nil {
				ok = false
				break
			}
			for _, id := range ur.Result.IDs {
				if c, present := inAll[id]; present && c == p {
					inAll[id] = p + 1
				}
			}
		}
		if !ok {
			continue
		}
		ids := make([]int, 0, len(inAll))
		for _, id := range first.Result.IDs {
			if inAll[id] == np {
				ids = append(ids, id)
			}
		}
		out = append(out, AndResult{Dataset: first.Dataset, IDs: ids})
	}
	return out
}

// Entries lists the session's open relations, sorted by key — the
// REPL's `sessions` command.
type EntryInfo struct {
	Key          string
	Queries      int
	CachedLabels int
	IngestMS     float64
}

// Entries returns the open relations' serving statistics.
func (ss *ScriptSession) Entries() []EntryInfo {
	keys := make([]RelationKey, 0, len(ss.entries))
	for k := range ss.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	out := make([]EntryInfo, 0, len(keys))
	for _, k := range keys {
		ent := ss.entries[k]
		out = append(out, EntryInfo{
			Key:          k.String(),
			Queries:      ent.sess.Queries(),
			CachedLabels: ent.sess.CachedLabels(),
			IngestMS:     ent.ix.IngestMS(),
		})
	}
	return out
}
