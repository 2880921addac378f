package faultinject

import (
	"fmt"
	"sync"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
	"github.com/everest-project/everest/internal/xrand"
)

// TransientError is the retryable failure the injector returns for
// KindErr faults. It implements the Transient() classification hook the
// dispatch boundary (vision.SafeScore) probes, so the engine's retry
// layer treats it as worth retrying.
type TransientError struct {
	// Call is the 0-based scoring-call index the fault fired on.
	Call int
}

// Error implements error.
func (e *TransientError) Error() string {
	return fmt.Sprintf("faultinject: injected transient oracle failure (call %d)", e.Call)
}

// Transient marks the error retryable.
func (e *TransientError) Transient() bool { return true }

// PanicValue is what injected panics carry, so recovery paths can
// distinguish an injected fault from a genuine bug.
type PanicValue struct {
	// Call is the 0-based scoring-call index the fault fired on.
	Call int
}

func (p PanicValue) String() string {
	return fmt.Sprintf("faultinject: injected oracle panic (call %d)", p.Call)
}

// Stats counts what the injector actually did. All fields are totals
// since the wrapper was created.
type Stats struct {
	// Calls is the number of scoring calls observed.
	Calls int
	// Transients is the number of injected transient errors.
	Transients int
	// Panics is the number of injected panics.
	Panics int
	// Slow is the number of calls that took a latency spike.
	Slow int
	// SpikeMS is the total simulated latency injected by KindSlow rules.
	SpikeMS float64
}

// injector is the shared fault engine behind the UDF and Source
// wrappers: a call counter plus the schedule/seed pair that decides,
// per call, which fault (if any) fires. Decisions depend only on the
// call index, so a run's fault sequence is reproducible even when the
// calls come from many goroutines.
type injector struct {
	sched Schedule
	seed  uint64

	mu    sync.Mutex
	calls int
	stats Stats
	clock *simclock.Clock
}

func newInjector(sched Schedule, seed uint64) *injector {
	return &injector{sched: sched.Normalize(), seed: seed}
}

// next consumes one call slot and returns the rule that fires on it
// (nil for none) along with the call index.
func (in *injector) next() (rule *Rule, call int) {
	in.mu.Lock()
	call = in.calls
	in.calls++
	in.stats.Calls++
	var spike float64
	var clock *simclock.Clock
	for i := range in.sched.Rules {
		r := &in.sched.Rules[i]
		if !r.matches(call) {
			continue
		}
		if r.Prob > 0 {
			// Per-call stream: the draw is a function of (seed, call), not
			// of how many probabilistic rules ran before — deterministic
			// under any concurrency.
			if xrand.New(in.seed).Split("faultinject").SplitIndex(uint64(call)).Float64() >= r.Prob {
				continue
			}
		}
		switch r.Kind {
		case KindErr:
			in.stats.Transients++
		case KindPanic:
			in.stats.Panics++
		case KindSlow:
			in.stats.Slow++
			in.stats.SpikeMS += r.MS
			spike, clock = r.MS, in.clock
		}
		rule = r
		break
	}
	in.mu.Unlock()
	if clock != nil && spike > 0 {
		clock.Charge(simclock.PhaseConfirm, spike)
	}
	return rule, call
}

func (in *injector) snapshot() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

func (in *injector) setClock(c *simclock.Clock) {
	in.mu.Lock()
	in.clock = c
	in.mu.Unlock()
}

// UDF wraps a vision.UDF with a fault schedule at the dispatch
// boundary: TryScore (the error-returning contract the engine
// dispatches through) consults the schedule before delegating, so
// transient errors and panics are injected exactly where a real flaky
// oracle would fail. Name, Quantize and OracleCostMS delegate, so a
// wrapped UDF serves against an index built with the clean one.
//
// Direct Score calls bypass injection (they delegate to the inner UDF
// verbatim): faults model the serving-path oracle dispatch, not Phase 1
// ingestion, which labels its samples through Score.
type UDF struct {
	vision.UDF
	in *injector
}

// WrapUDF wraps udf with the given schedule and seed (the seed matters
// only for probabilistic rules).
func WrapUDF(udf vision.UDF, sched Schedule, seed uint64) *UDF {
	return &UDF{UDF: udf, in: newInjector(sched, seed)}
}

// WithClock makes KindSlow latency spikes charge the given simclock (in
// the oracle-confirm phase) in addition to accumulating in Stats.
// Returns the wrapper for chaining.
func (u *UDF) WithClock(c *simclock.Clock) *UDF {
	u.in.setClock(c)
	return u
}

// TryScore implements vision.FallibleUDF: it applies the schedule's
// fault for this call — error, panic, or latency spike — and otherwise
// returns exactly the inner UDF's scores.
func (u *UDF) TryScore(src video.Source, ids []int) ([]float64, error) {
	rule, call := u.in.next()
	if rule != nil {
		switch rule.Kind {
		case KindErr:
			return nil, &TransientError{Call: call}
		case KindPanic:
			panic(PanicValue{Call: call})
		}
	}
	return vision.SafeScore(u.UDF, src, ids)
}

// Stats returns what the injector did so far.
func (u *UDF) Stats() Stats { return u.in.snapshot() }

// Source wraps a video.Source with a fault schedule on its Scene and
// CountObjects calls — the ground-truth paths detectors and oracles read
// through; each call consumes one slot of the one schedule. Sources have
// no error channel, so both KindErr and KindPanic panic (the dispatch
// boundary's recovery converts them into typed errors); KindSlow
// accumulates spike latency in Stats. All other methods delegate.
type Source struct {
	video.Source
	in *injector
}

// WrapSource wraps src with the given schedule and seed.
func WrapSource(src video.Source, sched Schedule, seed uint64) *Source {
	return &Source{Source: src, in: newInjector(sched, seed)}
}

// Scene implements video.Source with fault injection.
func (s *Source) Scene(i int) video.Scene {
	s.inject()
	return s.Source.Scene(i)
}

// CountObjects implements video.Source with fault injection.
func (s *Source) CountObjects(i int, class string) int {
	s.inject()
	return s.Source.CountObjects(i, class)
}

// inject consumes one call slot and panics if an error or panic fault
// fires on it.
func (s *Source) inject() {
	rule, call := s.in.next()
	if rule != nil && (rule.Kind == KindErr || rule.Kind == KindPanic) {
		panic(PanicValue{Call: call})
	}
}

// Stats returns what the injector did so far.
func (s *Source) Stats() Stats { return s.in.snapshot() }
