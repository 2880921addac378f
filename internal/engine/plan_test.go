package engine

import (
	"reflect"
	"strings"
	"testing"

	"github.com/everest-project/everest/internal/core"
)

func validPlan() Plan {
	return Plan{K: 5, Threshold: 0.9}
}

func TestPlanValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Plan)
		want string // substring of the error; empty means valid
	}{
		{"valid frame", func(p *Plan) {}, ""},
		{"valid tumbling", func(p *Plan) { p.Window.Size = 30 }, ""},
		{"valid sliding", func(p *Plan) { p.Window = WindowSpec{Size: 30, Stride: 10} }, ""},
		{"zero K", func(p *Plan) { p.K = 0 }, "K must be positive"},
		{"negative K", func(p *Plan) { p.K = -3 }, "K must be positive"},
		{"zero threshold", func(p *Plan) { p.Threshold = 0 }, "threshold must be in (0,1]"},
		{"threshold above one", func(p *Plan) { p.Threshold = 1.5 }, "threshold must be in (0,1]"},
		{"negative window", func(p *Plan) { p.Window.Size = -1 }, "negative window"},
		{"stride without window", func(p *Plan) { p.Window.Stride = 10 }, "stride 10 given without a window"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := validPlan()
			c.mut(&p)
			_, err := NewPlan(p)
			if c.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("plan %+v accepted, want error containing %q", p, c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
			if !strings.HasPrefix(err.Error(), "everest:") {
				t.Fatalf("error %q lost the public everest: prefix", err)
			}
		})
	}
}

func TestPlanNormalizeTumblingAndIdempotence(t *testing.T) {
	p := validPlan()
	p.Window.Size = 30
	n := p.Normalize()
	if n.Window.Stride != 30 {
		t.Fatalf("tumbling stride not normalized: %d", n.Window.Stride)
	}
	// Normalize owns the batch-size and sampling-fraction defaults too:
	// the paper's b = 8 (§3.5) and 10% of a window's frames (§3.4).
	if n.BatchSize != 8 || n.Window.SampleFrac != 0.1 {
		t.Fatalf("unset batch size / sample fraction normalized to %d / %v, want 8 / 0.1", n.BatchSize, n.Window.SampleFrac)
	}
	p.BatchSize, p.Window.SampleFrac = -2, 0.25
	if n := p.Normalize(); n.BatchSize != 8 || n.Window.SampleFrac != 0.25 {
		t.Fatalf("negative batch / set fraction normalized to %d / %v, want 8 / 0.25", n.BatchSize, n.Window.SampleFrac)
	}
	if again := n.Normalize(); !reflect.DeepEqual(again, n) {
		t.Fatalf("Normalize not idempotent: %+v vs %+v", again, n)
	}
	// Frame plans stay untouched.
	f := validPlan().Normalize()
	if f.Window.Stride != 0 || f.Window.Size != 0 {
		t.Fatalf("frame plan grew a window: %+v", f.Window)
	}
}

// TestPlanNormalizeClampsFaultKnobs: negative deadline, retry and
// backoff knobs mean "none" and normalize to zero; positive values pass
// through, and a zeroed knob drops out of the introspection list.
func TestPlanNormalizeClampsFaultKnobs(t *testing.T) {
	p := validPlan()
	p.DeadlineMS, p.Retries, p.RetryBackoffMS = -5, -3, -1
	n := p.Normalize()
	if n.DeadlineMS != 0 || n.Retries != 0 || n.RetryBackoffMS != 0 {
		t.Fatalf("negative fault knobs survived normalization: %+v", n)
	}
	for _, k := range n.Knobs() {
		if k.Name == "deadline-ms" || k.Name == "retries" {
			t.Fatalf("clamped knob %q still listed: %v", k.Name, n.Knobs())
		}
	}
	p.DeadlineMS, p.Retries, p.RetryBackoffMS = 250, 3, 10
	if n := p.Normalize(); n.DeadlineMS != 250 || n.Retries != 3 || n.RetryBackoffMS != 10 {
		t.Fatalf("positive fault knobs changed by normalization: %+v", n)
	}
}

func TestPlanBoundKind(t *testing.T) {
	p := validPlan()
	if p.Bound() != core.BoundIndependent {
		t.Fatal("frame plan must use the independent bound")
	}
	p.Window = WindowSpec{Size: 30, Stride: 30}
	if p.Bound() != core.BoundIndependent {
		t.Fatal("tumbling windows are independent")
	}
	p.Window.Stride = 10
	if p.Bound() != core.BoundUnion {
		t.Fatal("overlapping windows must force the union bound")
	}
	p = validPlan()
	p.ForceUnionBound = true
	if p.Bound() != core.BoundUnion {
		t.Fatal("ForceUnionBound ignored")
	}
}

// TestWindowSpecOverlapping: after Normalize only a stride below the
// size overlaps — an unset stride is tumbling, and gapped windows share
// no frame.
func TestWindowSpecOverlapping(t *testing.T) {
	for _, c := range []struct {
		w    WindowSpec
		want bool
	}{
		{WindowSpec{Size: 10, Stride: 5}, true},
		{WindowSpec{Size: 10, Stride: 10}, false},
		{WindowSpec{Size: 10}, false},
		{WindowSpec{Size: 10, Stride: 15}, false},
		{WindowSpec{}, false},
	} {
		p := validPlan()
		p.Window = c.w
		if got := p.Normalize().Window.Overlapping(); got != c.want {
			t.Fatalf("%+v: Overlapping = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestPlanValidateFor(t *testing.T) {
	p := validPlan()
	if err := p.ValidateFor(0); err == nil || !strings.Contains(err.Error(), "empty video") {
		t.Fatalf("empty video accepted: %v", err)
	}
	w, err := NewPlan(Plan{K: 50, Threshold: 0.9, Window: WindowSpec{Size: 100}})
	if err != nil {
		t.Fatal(err)
	}
	// 1000 frames / 100-frame tumbling windows = 10 windows < K = 50.
	if err := w.ValidateFor(1000); err == nil || !strings.Contains(err.Error(), "only 10 windows") {
		t.Fatalf("window-starved plan accepted: %v", err)
	}
	if err := w.ValidateFor(10000); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestPlanCompatible(t *testing.T) {
	a := validPlan().Normalize()
	b := a
	b.K = 20
	b.Threshold = 0.99
	b.Window = WindowSpec{Size: 30, Stride: 30}
	b.Seed = 99
	if !Compatible(a, b) {
		t.Fatal("plans differing only in K/threshold/window/seed must coalesce")
	}
	c := a
	c.Cost.OracleMS = a.Cost.OracleMS + 1
	if Compatible(a, c) {
		t.Fatal("plans with different cost models must not coalesce")
	}
}

func TestPlanKnobsIntrospection(t *testing.T) {
	p := Plan{
		K: 7, Threshold: 0.95,
		Window:    WindowSpec{Size: 300, Stride: 30, SampleFrac: 0.2},
		BatchSize: 8,
		Procs:     4,
		UseMux:    true,
		Retries:   3,
		Seed:      11,
	}.Normalize()
	got := map[string]string{}
	var order []string
	for _, k := range p.Knobs() {
		got[k.Name] = k.Value
		order = append(order, k.Name)
	}
	want := map[string]string{
		"k": "7", "threshold": "0.95",
		"window-size": "300", "window-stride": "30", "window-sample-frac": "0.2",
		"batch-size": "8", "procs": "4",
		"use-mux": "true", "proxy-cascade": "decode→diff→proxy",
		"retries": "3", "seed": "11",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("knobs = %v, want %v", got, want)
	}
	// Deterministic order, and the zero-valued optional knobs are omitted.
	again := p.Knobs()
	for i, k := range again {
		if k.Name != order[i] {
			t.Fatalf("knob order not deterministic: %v vs %v", again, order)
		}
	}
	frame := validPlan().Normalize()
	for _, k := range frame.Knobs() {
		switch k.Name {
		case "window-size", "admission-limit", "deadline-ms", "retries":
			t.Fatalf("frame plan with defaults rendered optional knob %s", k.Name)
		case "procs":
			if k.Value != "auto" {
				t.Fatalf("unset procs rendered %q, want auto", k.Value)
			}
		}
	}
}
