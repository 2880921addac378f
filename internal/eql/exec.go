package eql

import (
	"fmt"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// RelationKey identifies a shared ingest/relation sub-plan: statements
// over the same (video, frame count, UDF, seed) bind to one relation,
// pay Phase 1 once, and share every oracle label through one session
// cache. Seed is part of the identity because Phase 1's sample set —
// and therefore the artifact — depends on it (the REPL has always
// keyed its sessions the same way).
type RelationKey struct {
	Dataset string
	Frames  int
	UDF     string
	Seed    uint64
}

func (k RelationKey) String() string {
	return fmt.Sprintf("%s|%d|%s|%d", k.Dataset, k.Frames, k.UDF, k.Seed)
}

// Relation is one common sub-plan of a script: the bound (video, UDF)
// pair every unit with the same RelationKey executes against.
type Relation struct {
	Key    RelationKey
	Source *video.Synthetic
	UDF    vision.UDF
	// Units are the script's executable units bound to this relation, in
	// statement order — the coalesced group the executor submits over
	// the relation's shared cache.
	Units []*Unit
}

// Unit is one executable engine plan of a script: one (statement,
// source, predicate) combination.
type Unit struct {
	// Stmt and SourceIdx locate the unit in the script; Slot is its
	// index in its statement's unit list (and result list).
	Stmt      int
	SourceIdx int
	Slot      int
	// Kind is the statement's kind — what executing the unit means.
	Kind Kind
	// Rel is the shared relation the unit runs against; nil for
	// scale-out (PARALLEL) and STREAM units, which bypass the session
	// machinery. An explained unit binds as the statement under the
	// EXPLAIN would.
	Rel *Relation
	// Source and UDF are the unit's own bindings (== Rel's when set).
	Source *video.Synthetic
	UDF    vision.UDF
	// Config is the engine configuration derived from the statement.
	Config everest.Config
	// Workers is the scale-out degree (1 = serial).
	Workers int
}

// StatementPlan is one statement's bound form: its units in
// (source-major, predicate-minor) order, all of the statement's Kind.
type StatementPlan struct {
	Stmt  *Statement
	Units []*Unit
}

// ScriptPlan is a script bound to a coordinated plan graph: every
// statement's units plus the deduplicated relations they share.
type ScriptPlan struct {
	Statements []*StatementPlan
	// Relations lists the distinct (video, frames, UDF, seed) sub-plans
	// in first-appearance order — the script's shared work.
	Relations []*Relation
	// Units lists every unit in statement order.
	Units []*Unit
}

// SharedUnits counts units beyond the first on each relation — the
// ingest stages the script binds once instead of repeatedly.
func (sp *ScriptPlan) SharedUnits() int {
	n := 0
	for _, rel := range sp.Relations {
		if len(rel.Units) > 1 {
			n += len(rel.Units) - 1
		}
	}
	return n
}

// bindSource resolves one FROM operand against the dataset catalog. The
// source it builds is a description (video.NewSynthetic generates
// nothing), so binding costs the same for any video length.
func bindSource(ref SourceRef, frames int) (*video.Synthetic, video.DatasetSpec, error) {
	spec, err := video.DatasetByName(ref.Name)
	if err != nil {
		return nil, spec, &ParseError{Pos: ref.Pos, Msg: err.Error()}
	}
	src, err := spec.Build(frames)
	if err != nil {
		return nil, spec, &ParseError{Pos: ref.Pos, Msg: err.Error()}
	}
	return src, spec, nil
}

// bindUDF resolves one RANK BY predicate against the catalog for a
// bound source.
func bindUDF(pred Predicate, spec video.DatasetSpec, src *video.Synthetic) (vision.UDF, error) {
	switch pred.UDF {
	case "count":
		class := pred.Arg
		if class == "" {
			class = src.TargetClass()
		}
		return vision.CountUDF{Class: class}, nil
	case "tailgate":
		if spec.Config.Kind != video.KindDashcam {
			return nil, &ParseError{Pos: pred.Pos, Msg: fmt.Sprintf("tailgate() requires a dashcam dataset, %s is not one", spec.Name)}
		}
		return vision.TailgateUDF{}, nil
	case "sentiment":
		if spec.Config.Kind != video.KindStreet {
			return nil, &ParseError{Pos: pred.Pos, Msg: fmt.Sprintf("sentiment() requires a street dataset, %s is not one", spec.Name)}
		}
		return vision.SentimentUDF{}, nil
	default:
		return nil, &ParseError{Pos: pred.Pos, Msg: fmt.Sprintf("unknown ranking function %q (count, tailgate, sentiment)", pred.UDF)}
	}
}

// statementConfig derives the engine configuration common to all of a
// statement's units.
func statementConfig(q *Statement) everest.Config {
	cfg := everest.Config{
		K:                q.K,
		Threshold:        q.Threshold,
		Window:           q.Window,
		Stride:           q.Stride,
		WindowSampleFrac: q.SampleFrac,
		Seed:             q.Seed,
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// BindScript resolves every statement of a script against the catalog
// and produces the coordinated plan set: one Unit per (statement,
// source, predicate) combination, each carrying its statement's Kind,
// with units over the same (video, frames, UDF, seed) identity bound to
// one shared Relation. Each distinct (dataset, frames) operand is
// resolved once, so the plan holds one source per operand. Binding is
// all-or-nothing — a script with any unresolvable name fails as a whole,
// before anything runs.
func BindScript(s *Script) (*ScriptPlan, error) {
	sp := &ScriptPlan{}
	rels := make(map[RelationKey]*Relation)
	// One source per distinct FROM operand, for the length of this call.
	type operand struct {
		name   string
		frames int
	}
	type bound struct {
		src  *video.Synthetic
		spec video.DatasetSpec
	}
	sources := make(map[operand]bound)
	for si, stmt := range s.Statements {
		stp := &StatementPlan{Stmt: stmt}
		kind := stmt.Kind()
		if stmt.Stream && stmt.Parallel > 1 {
			return nil, &ParseError{Pos: stmt.Pos, Msg: "STREAM statements cannot use PARALLEL scale-out"}
		}
		if kind == KindAnalyze {
			// EXPLAIN ANALYZE prices and measures one plan on a session;
			// reject the unsupported shapes here so a bad statement costs
			// nothing.
			if stmt.Stream {
				return nil, &ParseError{Pos: stmt.Pos, Msg: "EXPLAIN ANALYZE is not supported for STREAM statements"}
			}
			if stmt.Parallel > 1 {
				return nil, &ParseError{Pos: stmt.Pos,
					Msg: "EXPLAIN ANALYZE does not support PARALLEL scale-out; the planner sets procs itself"}
			}
			if len(stmt.Sources) > 1 || len(stmt.Predicates) > 1 {
				return nil, &ParseError{Pos: stmt.Pos,
					Msg: "EXPLAIN ANALYZE supports single-source, single-predicate statements"}
			}
		}
		workers := stmt.Parallel
		if workers == 0 {
			workers = 1
		}
		cfg := statementConfig(stmt)
		for srcIdx, ref := range stmt.Sources {
			op := operand{ref.Name, stmt.Frames}
			b, ok := sources[op]
			if !ok {
				src, spec, err := bindSource(ref, stmt.Frames)
				if err != nil {
					return nil, err
				}
				b = bound{src, spec}
				sources[op] = b
			}
			src := b.src
			for _, pred := range stmt.Predicates {
				udf, err := bindUDF(pred, b.spec, src)
				if err != nil {
					return nil, err
				}
				u := &Unit{
					Stmt:      si,
					SourceIdx: srcIdx,
					Slot:      len(stp.Units),
					Kind:      kind,
					Source:    src,
					UDF:       udf,
					Config:    cfg,
					Workers:   workers,
				}
				// Followers live on a stream's own ingestor and scale-out
				// runs standalone; every other unit joins its relation —
				// explained ones too, so an EXPLAIN prices their sharing.
				if !stmt.Stream && workers <= 1 {
					key := RelationKey{
						Dataset: src.Name(),
						Frames:  src.NumFrames(),
						UDF:     udf.Name(),
						Seed:    cfg.Seed,
					}
					rel, ok := rels[key]
					if !ok {
						rel = &Relation{Key: key, Source: src, UDF: udf}
						rels[key] = rel
						sp.Relations = append(sp.Relations, rel)
					}
					// A unit runs over its relation's own source and UDF, so the
					// shared session sees one identity. They already are the
					// unit's unless one statement spells the catalog's default
					// frame count out and another leaves it to the catalog.
					u.Rel = rel
					u.Source = rel.Source
					u.UDF = rel.UDF
					rel.Units = append(rel.Units, u)
				}
				stp.Units = append(stp.Units, u)
				sp.Units = append(sp.Units, u)
			}
		}
		sp.Statements = append(sp.Statements, stp)
	}
	return sp, nil
}

// bindOne binds a parsed statement as a one-statement script and
// returns its one unit — the form Execute, Explain and Analyze work on.
// STREAM and multi-unit statements have no single unit; they execute
// and explain through a ScriptSession / ExplainScript.
func bindOne(q *Statement) (*Unit, error) {
	if q.Stream {
		return nil, &ParseError{Pos: q.Pos, Msg: "STREAM statements compile to follower registrations; execute them through a ScriptSession with an attached live stream"}
	}
	if len(q.Sources) != 1 || len(q.Predicates) != 1 {
		return nil, &ParseError{Pos: q.Pos,
			Msg: fmt.Sprintf("statement has %d sources and %d predicates; multi-unit statements bind through BindScript", len(q.Sources), len(q.Predicates))}
	}
	sp, err := BindScript(&Script{Statements: []*Statement{q}})
	if err != nil {
		return nil, err
	}
	return sp.Units[0], nil
}

// Execute parses, binds and runs a single-unit EQL statement, returning
// the result and the unit it ran. EXPLAIN statements are rejected here
// (use Explain or Analyze); scripts and multi-unit statements are
// rejected too (use ScriptSession).
func Execute(src string) (*everest.Result, *Unit, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	switch q.Kind() {
	case KindAnalyze:
		return nil, nil, fmt.Errorf("eql: EXPLAIN ANALYZE statements plan and measure; use Analyze")
	case KindExplain:
		return nil, nil, fmt.Errorf("eql: EXPLAIN statements describe a plan; use Explain")
	}
	u, err := bindOne(q)
	if err != nil {
		return nil, nil, err
	}
	var res *everest.Result
	switch u.Kind {
	case KindScaleOut:
		res, err = runScaleOut(u)
	default:
		res, err = everest.Run(u.Source, u.UDF, u.Config)
	}
	if err != nil {
		return nil, nil, err
	}
	return res, u, nil
}

// runScaleOut runs a PARALLEL unit standalone, outside any session.
func runScaleOut(u *Unit) (*everest.Result, error) {
	pres, err := everest.RunParallel(u.Source, u.UDF, u.Config, u.Workers)
	if err != nil {
		return nil, err
	}
	return &pres.Result, nil
}
