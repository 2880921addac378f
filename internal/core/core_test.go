package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/xrand"
)

// trueWorldOracle fixes a ground-truth level per tuple and serves it.
type trueWorldOracle struct {
	levels map[int]int
	calls  int
}

func (o *trueWorldOracle) CleanBatch(ids []int) ([]int, error) {
	o.calls += len(ids)
	out := make([]int, len(ids))
	for i, id := range ids {
		lvl, ok := o.levels[id]
		if !ok {
			return nil, errors.New("unknown id")
		}
		out[i] = lvl
	}
	return out, nil
}

// randomRelation builds a relation of n tuples with true levels sampled
// from each tuple's own distribution (a perfectly calibrated proxy), plus
// nCertain pre-cleaned tuples.
func randomRelation(r *xrand.RNG, n, nCertain, maxSupport, maxMin int) (uncertain.Relation, *trueWorldOracle) {
	rel := make(uncertain.Relation, 0, n)
	oracle := &trueWorldOracle{levels: make(map[int]int)}
	for i := 0; i < n; i++ {
		var d uncertain.Dist
		if i < nCertain {
			d = uncertain.Certain(r.Intn(maxMin + maxSupport))
		} else {
			sup := 2 + r.Intn(maxSupport-1)
			probs := make([]float64, sup)
			for k := range probs {
				probs[k] = 0.05 + r.Float64()
			}
			d = mustDist(r.Intn(maxMin+1), probs)
		}
		rel = append(rel, uncertain.XTuple{ID: i, Dist: d})
		oracle.levels[i] = sampleLevel(r, d)
		if d.IsCertain() {
			oracle.levels[i] = d.Min
		}
	}
	return rel, oracle
}

func sampleLevel(r *xrand.RNG, d uncertain.Dist) int {
	u := r.Float64()
	acc := 0.0
	for lvl := d.Min; lvl <= d.Max(); lvl++ {
		acc += d.Pr(lvl)
		if u < acc {
			return lvl
		}
	}
	return d.Max()
}

// newEngine prepares rel and starts one run over it with no override.
func newEngine(rel uncertain.Relation, cfg Config, oracle Oracle, clock *simclock.Clock, cost simclock.CostModel) (*Engine, error) {
	b, err := Prepare(rel, cfg.Bound)
	if err != nil {
		return nil, err
	}
	return b.Start(cfg, nil, nil, oracle, clock, cost)
}

func defaultCfg(k int, thres float64) Config {
	return Config{K: k, Threshold: thres, BatchSize: 1}
}

func TestEngineValidation(t *testing.T) {
	rel := uncertain.Relation{{ID: 0, Dist: uncertain.Certain(1)}}
	oracle := OracleFunc(func(ids []int) ([]int, error) { return nil, nil })
	cases := []Config{
		{K: 0, Threshold: 0.9, BatchSize: 8},
		{K: 2, Threshold: 0.9, BatchSize: 8},  // K > n
		{K: 1, Threshold: 0, BatchSize: 8},    // bad threshold
		{K: 1, Threshold: 1.01, BatchSize: 8}, // bad threshold
		{K: 1, Threshold: 0.9},                // unset batch size
	}
	for _, cfg := range cases {
		if _, err := newEngine(rel, cfg, oracle, nil, simclock.Default()); err == nil {
			t.Fatalf("config %+v should be rejected", cfg)
		}
	}
	if _, err := newEngine(nil, defaultCfg(1, 0.9), oracle, nil, simclock.Default()); !errors.Is(err, ErrEmptyRelation) {
		t.Fatalf("empty relation error = %v", err)
	}
	if _, err := newEngine(rel, defaultCfg(1, 0.9), nil, nil, simclock.Default()); err == nil {
		t.Fatal("nil oracle should be rejected")
	}
	dup := uncertain.Relation{{ID: 0, Dist: uncertain.Certain(1)}, {ID: 0, Dist: uncertain.Certain(2)}}
	if _, err := newEngine(dup, defaultCfg(1, 0.9), oracle, nil, simclock.Default()); err == nil {
		t.Fatal("duplicate IDs should be rejected")
	}
}

func TestEngineAllCertain(t *testing.T) {
	rel := uncertain.Relation{
		{ID: 0, Dist: uncertain.Certain(3)},
		{ID: 1, Dist: uncertain.Certain(9)},
		{ID: 2, Dist: uncertain.Certain(5)},
	}
	oracle := &trueWorldOracle{levels: map[int]int{}}
	e, err := newEngine(rel, defaultCfg(2, 0.99), oracle, nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Confidence != 1 {
		t.Fatalf("confidence = %v, want 1 for fully certain relation", res.Confidence)
	}
	if res.IDs[0] != 1 || res.IDs[1] != 2 {
		t.Fatalf("IDs = %v, want [1 2]", res.IDs)
	}
	if oracle.calls != 0 {
		t.Fatalf("oracle called %d times on a fully certain relation", oracle.calls)
	}
}

func TestEngineReachesThreshold(t *testing.T) {
	r := xrand.New(1)
	rel, oracle := randomRelation(r, 200, 20, 5, 10)
	cfg := defaultCfg(5, 0.9)
	e, err := newEngine(rel, cfg, oracle, nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Confidence < 0.9 {
		t.Fatalf("confidence %v < threshold", res.Confidence)
	}
	if len(res.IDs) != 5 {
		t.Fatalf("result size %d", len(res.IDs))
	}
	// Certain-result condition: every returned level is the true level.
	for i, id := range res.IDs {
		if res.Levels[i] != oracle.levels[id] {
			t.Fatalf("returned level %d for id %d, true %d", res.Levels[i], id, oracle.levels[id])
		}
	}
	// Result levels are in descending order.
	for i := 1; i < len(res.Levels); i++ {
		if res.Levels[i] > res.Levels[i-1] {
			t.Fatalf("levels not descending: %v", res.Levels)
		}
	}
}

func TestEngineConfidenceMatchesBruteForce(t *testing.T) {
	// At termination, p̂ must equal the enumeration over remaining
	// uncertain tuples.
	r := xrand.New(7)
	rel, oracle := randomRelation(r, 12, 4, 3, 6)
	e, err := newEngine(rel, defaultCfg(3, 0.8), oracle, nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	sk := res.Levels[len(res.Levels)-1]
	var unc uncertain.Relation
	for id, d := range liveDists(e) {
		unc = append(unc, uncertain.XTuple{ID: id, Dist: d})
	}
	want := bruteTopkProb(unc, sk)
	if math.Abs(res.Confidence-want) > 1e-9 {
		t.Fatalf("confidence %v, brute force %v", res.Confidence, want)
	}
}

func TestEngineExactWhenThresholdOne(t *testing.T) {
	// thres == 1 forces cleaning until no uncertain frame can exceed S_k;
	// the result must be the exact Top-K of the true world.
	for seed := uint64(0); seed < 10; seed++ {
		r := xrand.New(seed)
		rel, oracle := randomRelation(r, 60, 10, 4, 8)
		e, err := newEngine(rel, defaultCfg(4, 1.0), oracle, nil, simclock.Default())
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Confidence < 1 {
			t.Fatalf("seed %d: confidence %v < 1", seed, res.Confidence)
		}
		assertValidTopK(t, res, oracle, 4)
	}
}

// assertValidTopK checks that no tuple outside the result has a true level
// above the result's minimum level (ties allowed, per the paper).
func assertValidTopK(t *testing.T, res Result, oracle *trueWorldOracle, k int) {
	t.Helper()
	inResult := make(map[int]bool, k)
	for _, id := range res.IDs {
		inResult[id] = true
	}
	skTrue := res.Levels[len(res.Levels)-1]
	for id, lvl := range oracle.levels {
		if !inResult[id] && lvl > skTrue {
			t.Fatalf("tuple %d has true level %d > threshold %d", id, lvl, skTrue)
		}
	}
}

func TestEngineGuaranteeCalibration(t *testing.T) {
	// Statistical test of the paper's central claim: with a calibrated
	// proxy, Pr(R̂ is the exact Top-K) ≥ thres. Run many trials with
	// independent true worlds; the failure rate must not significantly
	// exceed 1 − thres.
	const trials = 300
	const thres = 0.8
	failures := 0
	for seed := uint64(0); seed < trials; seed++ {
		r := xrand.New(seed + 1000)
		rel, oracle := randomRelation(r, 40, 8, 4, 6)
		e, err := newEngine(rel, defaultCfg(3, thres), oracle, nil, simclock.Default())
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		inResult := make(map[int]bool)
		for _, id := range res.IDs {
			inResult[id] = true
		}
		skTrue := res.Levels[len(res.Levels)-1]
		ok := true
		for id, lvl := range oracle.levels {
			if !inResult[id] && lvl > skTrue {
				ok = false
				break
			}
		}
		if !ok {
			failures++
		}
	}
	// Binomial(300, 0.2) has mean 60, σ ≈ 6.9; allow mean + 4σ ≈ 88.
	if failures > 88 {
		t.Fatalf("guarantee violated: %d/%d failures at thres=%v", failures, trials, thres)
	}
}

func TestExpectedConfidenceMatchesBruteForce(t *testing.T) {
	// Eq. 6 must equal the definition: E[X_f] = Σ_s Pr(S_f=s)·p̂', where
	// p̂' is recomputed from scratch after hypothetically cleaning f at s.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 6 + r.Intn(6)
		k := 1 + r.Intn(3)
		nCertain := k + r.Intn(3)
		rel, oracle := randomRelation(r, n, nCertain, 4, 6)
		e, err := newEngine(rel, defaultCfg(k, 0.99), oracle, nil, simclock.Default())
		if err != nil {
			return false
		}
		if e.certain.len() < k {
			return true // bootstrap case, covered elsewhere
		}
		sk, sp := e.thresholds()
		for id, d := range liveDists(e) {
			got := e.sel.expectedConfidence(d, sk, sp)
			want := bruteExpectedConfidence(e, id, d, k)
			if math.Abs(got-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// bruteExpectedConfidence evaluates E[X_f] by direct definition.
func bruteExpectedConfidence(e *Engine, fid int, d uncertain.Dist, k int) float64 {
	// Snapshot current certain entries.
	type ce struct{ id, level int }
	var certs []ce
	for _, en := range e.certain.top {
		certs = append(certs, ce{en.id, en.level})
	}
	total := 0.0
	for lvl := d.Min; lvl <= d.Max(); lvl++ {
		p := d.Pr(lvl)
		if p == 0 {
			continue
		}
		// New certain pool with f cleaned at lvl.
		pool := append(append([]ce(nil), certs...), ce{fid, lvl})
		sort.Slice(pool, func(i, j int) bool {
			if pool[i].level != pool[j].level {
				return pool[i].level > pool[j].level
			}
			return pool[i].id < pool[j].id
		})
		skNew := pool[k-1].level
		phat := 1.0
		for id, du := range liveDists(e) {
			if id == fid {
				continue
			}
			phat *= du.CDF(skNew)
		}
		total += p * phat
	}
	return total
}

func TestEngineBootstrap(t *testing.T) {
	// No certain tuples at all: the engine must clean K frames first.
	r := xrand.New(3)
	rel, oracle := randomRelation(r, 30, 0, 4, 8)
	e, err := newEngine(rel, defaultCfg(5, 0.9), oracle, nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BootstrapCleaned != 5 {
		t.Fatalf("BootstrapCleaned = %d, want 5", res.Stats.BootstrapCleaned)
	}
	if res.Confidence < 0.9 {
		t.Fatalf("confidence %v", res.Confidence)
	}
}

func TestEngineEarlyStopMatchesExhaustive(t *testing.T) {
	// The ψ bound must not change the chosen result, only the work done.
	for seed := uint64(0); seed < 8; seed++ {
		r1 := xrand.New(seed)
		rel1, oracle1 := randomRelation(r1, 80, 15, 4, 8)
		r2 := xrand.New(seed)
		rel2, oracle2 := randomRelation(r2, 80, 15, 4, 8)

		cfgFast := defaultCfg(4, 0.9)
		cfgSlow := defaultCfg(4, 0.9)
		cfgSlow.DisableEarlyStop = true

		e1, _ := newEngine(rel1, cfgFast, oracle1, nil, simclock.Default())
		e2, _ := newEngine(rel2, cfgSlow, oracle2, nil, simclock.Default())
		res1, err1 := e1.Run()
		res2, err2 := e2.Run()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(res1.IDs) != len(res2.IDs) {
			t.Fatalf("seed %d: result sizes differ", seed)
		}
		for i := range res1.IDs {
			if res1.IDs[i] != res2.IDs[i] {
				t.Fatalf("seed %d: early stop changed the result: %v vs %v", seed, res1.IDs, res2.IDs)
			}
		}
		if res1.Stats.Examined > res2.Stats.Examined {
			t.Fatalf("seed %d: early stop examined MORE candidates (%d > %d)",
				seed, res1.Stats.Examined, res2.Stats.Examined)
		}
	}
}

func TestEngineResortOnceStillTerminates(t *testing.T) {
	r := xrand.New(9)
	rel, oracle := randomRelation(r, 100, 15, 4, 8)
	cfg := defaultCfg(4, 0.9)
	cfg.ResortOnce = true
	e, err := newEngine(rel, cfg, oracle, nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Confidence < 0.9 {
		t.Fatalf("confidence %v", res.Confidence)
	}
	if res.Stats.Resorts != 1 {
		t.Fatalf("Resorts = %d, want 1", res.Stats.Resorts)
	}
}

func TestEngineBatchSizes(t *testing.T) {
	for _, b := range []int{1, 2, 8, 32} {
		r := xrand.New(11)
		rel, oracle := randomRelation(r, 120, 20, 4, 8)
		cfg := Config{K: 5, Threshold: 0.9, BatchSize: b}
		e, err := newEngine(rel, cfg, oracle, nil, simclock.Default())
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Confidence < 0.9 {
			t.Fatalf("b=%d: confidence %v", b, res.Confidence)
		}
		if res.Stats.Iterations > 0 && res.Stats.Cleaned > res.Stats.Iterations*b {
			t.Fatalf("b=%d: cleaned %d in %d iterations", b, res.Stats.Cleaned, res.Stats.Iterations)
		}
	}
}

func TestEngineOracleErrorPropagates(t *testing.T) {
	r := xrand.New(13)
	rel, _ := randomRelation(r, 20, 5, 4, 6)
	boom := errors.New("gpu on fire")
	oracle := OracleFunc(func(ids []int) ([]int, error) { return nil, boom })
	e, err := newEngine(rel, defaultCfg(2, 0.99), oracle, nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want wrapped oracle error", err)
	}
}

func TestEngineChargesClock(t *testing.T) {
	r := xrand.New(19)
	rel, oracle := randomRelation(r, 100, 15, 4, 8)
	clock := simclock.NewClock()
	cost := simclock.Default()
	e, err := newEngine(rel, defaultCfg(5, 0.9), oracle, clock, cost)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The oracle charges its own inference; cleaning charges the launches.
	wantConfirm := cost.LaunchOverheadMS(res.Stats.OracleCalls)
	if got := clock.PhaseMS(simclock.PhaseConfirm); math.Abs(got-wantConfirm) > 1e-9 {
		t.Fatalf("confirm charge %v, want %v", got, wantConfirm)
	}
	if res.Stats.OracleCalls == 0 {
		t.Fatal("OracleCalls not counted")
	}
	if res.Stats.Examined > 0 && clock.PhaseMS(simclock.PhaseSelect) <= 0 {
		t.Fatal("select phase not charged")
	}
}

func TestEngineK1(t *testing.T) {
	// K == 1 exercises the noPenultimate path.
	for seed := uint64(0); seed < 10; seed++ {
		r := xrand.New(seed + 50)
		rel, oracle := randomRelation(r, 40, 5, 4, 8)
		e, err := newEngine(rel, defaultCfg(1, 0.95), oracle, nil, simclock.Default())
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Confidence < 0.95 {
			t.Fatalf("seed %d: confidence %v", seed, res.Confidence)
		}
		if len(res.IDs) != 1 {
			t.Fatalf("result size %d", len(res.IDs))
		}
	}
}

func TestConfidenceMonotoneInCleaning(t *testing.T) {
	// Each batch clean must never leave p̂ undefined, and with threshold 1
	// p̂ must eventually hit exactly 1.
	r := xrand.New(23)
	rel, oracle := randomRelation(r, 50, 10, 4, 8)
	e, err := newEngine(rel, defaultCfg(3, 1.0), oracle, nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Confidence != 1 {
		t.Fatalf("confidence = %v, want exactly 1", res.Confidence)
	}
}

// TestPrepareRejectsUnorderedRelation: the engine addresses tuples by
// their position in ascending ID order, and Prepare reads the relation
// in place, so a descending or shuffled relation is an error — as two
// tuples with one ID are, wherever they sit — and the caller's slice is
// never reordered. The ascending relation, with sparse IDs, prepares and
// runs.
func TestPrepareRejectsUnorderedRelation(t *testing.T) {
	for _, bound := range []BoundKind{BoundIndependent, BoundUnion} {
		r := xrand.New(4242)
		asc, oracle := randomRelation(r, 400, 12, 6, 20)
		for i := range asc {
			asc[i].ID = 3*i + 7 // sparse IDs: positions are not IDs
		}
		levels := make(map[int]int, len(asc))
		for i, x := range asc {
			levels[x.ID] = oracle.levels[i]
		}
		oracle.levels = levels
		cfg := Config{K: 8, Threshold: 0.95, BatchSize: 4, Bound: bound}
		e, err := newEngine(asc, cfg, oracle, nil, simclock.Default())
		if err != nil {
			t.Fatalf("bound %v: ascending relation: %v", bound, err)
		}
		if res, err := e.Run(); err != nil || res.Stats.Cleaned == 0 {
			t.Fatalf("bound %v: ascending relation ran to %+v, %v", bound, res, err)
		}

		desc := make(uncertain.Relation, len(asc))
		for i, x := range asc {
			desc[len(asc)-1-i] = x
		}
		shuffled := make(uncertain.Relation, len(asc))
		for i, j := range r.Perm(len(asc)) {
			shuffled[i] = asc[j]
		}
		for name, rel := range map[string]uncertain.Relation{"descending": desc, "shuffled": shuffled} {
			given := append(uncertain.Relation(nil), rel...)
			if _, err := Prepare(rel, bound); err == nil || !strings.Contains(err.Error(), "not in ascending ID order") {
				t.Fatalf("bound %v, %s relation: error %v, want an unordered-relation error", bound, name, err)
			}
			for i := range rel {
				if rel[i].ID != given[i].ID {
					t.Fatalf("bound %v, %s relation: Prepare reordered the caller's relation", bound, name)
				}
			}
		}

		for _, at := range [][2]int{{0, 1}, {299, 300}, {398, 399}} {
			dup := append(uncertain.Relation(nil), asc...)
			dup[at[1]].ID = dup[at[0]].ID
			_, err := Prepare(dup, bound)
			if want := fmt.Sprintf("core: duplicate tuple ID %d", dup[at[0]].ID); err == nil || err.Error() != want {
				t.Fatalf("duplicate at %v: error %v, want %q", at, err, want)
			}
		}
	}
}

// liveDists returns the engine's still-uncertain tuples by ID.
func liveDists(e *Engine) map[int]uncertain.Dist {
	m := make(map[int]uncertain.Dist, e.nLive)
	for i, x := range e.rel {
		if e.live.has(i) {
			m[x.ID] = x.Dist
		}
	}
	return m
}
