package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from this package only: around the calls the driver makes into each
// layer, and inside the video.Source / vision.UDF wrappers it hands to
// the public API.
type span struct {
	Layer, Name string
	Start, End  time.Duration // since the recorder started
	Parent      int           // index into recorder.spans, -1 for a root
	Op          int           // op the span belongs to, -1 outside ops
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the tracing-off state: every method is a no-op, so the wrappers cost
// one nil check in untraced runs.
//
// One client goroutine opens and closes spans with begin/end (a stack);
// worker goroutines inside the program report finished leaf spans with
// leaf, parented to whatever the client has open at that moment — the
// client is blocked in the call that spawned them.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), op: -1} }

// setOp tags the spans that follow with an op id (-1 for none).
func (r *recorder) setOp(op int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.op = op
	r.mu.Unlock()
}

func (r *recorder) begin(layer, name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Layer: layer, Name: name, Start: now, Parent: r.top(), Op: r.op})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	return id
}

// end closes the span begin returned and gives its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	r.stack = r.stack[:len(r.stack)-1]
	return now - r.spans[id].Start
}

func (r *recorder) leaf(layer, name string, start time.Time) {
	if r == nil {
		return
	}
	end := time.Since(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, span{Layer: layer, Name: name, Start: start.Sub(r.t0), End: end, Parent: r.top(), Op: r.op})
	r.mu.Unlock()
}

func (r *recorder) top() int {
	if len(r.stack) == 0 {
		return -1
	}
	return r.stack[len(r.stack)-1]
}

// timed runs fn inside a span and returns how long it took. With a nil
// recorder it still times fn, so ladder code has one shape.
func (r *recorder) timed(layer, name string, fn func()) time.Duration {
	if r == nil {
		return elapsed(fn)
	}
	id := r.begin(layer, name)
	fn()
	return r.end(id)
}

func elapsed(fn func()) time.Duration {
	t := time.Now()
	fn()
	return time.Since(t)
}

// spanTotal sums the spans of one "layer.name".
type spanTotal struct {
	Count     int
	Dur, Self time.Duration
}

// totals groups spans by "layer.name", from span index `from` on. A
// span's self time is its duration minus the part of its interval that
// its child spans cover (children of parallel workers overlap, so the
// cover is a union, not a sum).
func (r *recorder) totals(from int) map[string]spanTotal {
	out := make(map[string]spanTotal)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make(map[int][]int)
	for i := from; i < len(r.spans); i++ {
		if p := r.spans[i].Parent; p >= from {
			kids[p] = append(kids[p], i)
		}
	}
	for i := from; i < len(r.spans); i++ {
		s := r.spans[i]
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return r.spans[ch[a]].Start < r.spans[ch[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, c := range ch {
			cs, ce := max(r.spans[c].Start, edge), min(r.spans[c].End, s.End)
			if ce > cs {
				covered += ce - cs
				edge = ce
			}
		}
		t := out[s.Layer+"."+s.Name]
		t.Count++
		t.Dur += s.End - s.Start
		t.Self += s.End - s.Start - covered
		out[s.Layer+"."+s.Name] = t
	}
	return out
}

func (r *recorder) mark() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// writeChrome writes the spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto): one complete ("X") event per span, one
// track per op.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	r.mu.Lock()
	evs := make([]event, len(r.spans))
	for i, s := range r.spans {
		evs[i] = event{
			Name: s.Layer + "." + s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Op + 1,
			Args: map[string]int{"id": i, "parent": s.Parent, "op": s.Op},
		}
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// oracleUDF is the counting wrapper every run hands to the program in
// place of the real UDF: it counts the frames the oracle actually scored
// (atomics only) and forwards Name, Quantize and OracleCostMS unchanged,
// so cache keys and simulated charges are the program's own. With a
// recorder it also records one span per Score call.
type oracleUDF struct {
	inner         vision.UDF
	calls, frames atomic.Int64
	ns            atomic.Int64 // time inside Score, traced calls only
	rec           *recorder
}

func (u *oracleUDF) Name() string                        { return u.inner.Name() }
func (u *oracleUDF) Quantize() uncertain.QuantizeOptions { return u.inner.Quantize() }
func (u *oracleUDF) OracleCostMS(c simclock.CostModel) float64 {
	return u.inner.OracleCostMS(c)
}

func (u *oracleUDF) Score(src video.Source, ids []int) []float64 {
	u.calls.Add(1)
	u.frames.Add(int64(len(ids)))
	if u.rec == nil {
		return u.inner.Score(src, ids)
	}
	t := time.Now()
	out := u.inner.Score(src, ids)
	u.rec.leaf("vision", "score", t)
	u.ns.Add(int64(time.Since(t)))
	return out
}

// tracedSource records one span per Render. Traced passes use it;
// untraced passes hand the program the bare source, except where the
// program keeps the source it was opened with (a live stream): there the
// wrapper is in place from the start with a nil recorder.
type tracedSource struct {
	video.Source
	rec *recorder
}

func (s *tracedSource) Render(i int) video.Frame {
	if s.rec == nil {
		return s.Source.Render(i)
	}
	t := time.Now()
	f := s.Source.Render(i)
	s.rec.leaf("video", "render", t)
	return f
}

// traced wraps src for a recorder; a nil recorder returns src itself.
func traced(src video.Source, rec *recorder) video.Source {
	if rec == nil {
		return src
	}
	return &tracedSource{Source: src, rec: rec}
}
