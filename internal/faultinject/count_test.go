package faultinject

import (
	"fmt"
	"testing"

	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// TestWrappedCountObjectsMatchesScene: with an empty schedule the wrapper
// answers CountObjects, on every frame of every catalog dataset and for
// every class the catalog generates, as the frame's scene lists it.
func TestWrappedCountObjectsMatchesScene(t *testing.T) {
	for _, spec := range video.Datasets() {
		src, err := spec.Build(0)
		if err != nil {
			t.Fatal(err)
		}
		w := WrapSource(src, Schedule{}, 1)
		for i := 0; i < src.NumFrames(); i++ {
			sc := src.Scene(i)
			for _, c := range []string{video.ClassCar, video.ClassBus, video.ClassPerson, video.ClassBoat} {
				if got, want := w.CountObjects(i, c), sc.CountClass(c); got != want {
					t.Fatalf("%s frame %d: wrapped CountObjects(%q) = %d, scene lists %d", spec.Name, i, c, got, want)
				}
			}
		}
	}
}

// TestCountObjectsFaultParity: the counting UDF, which reads counts, meets
// through the wrapper the faults the oracle detector, which reads scenes,
// meets — the same call indices fire, as panics for errors and panics and
// as spike latency for slow calls, and the clean calls score the same.
func TestCountObjectsFaultParity(t *testing.T) {
	src := testSource(t, 11)
	udf := vision.CountUDF{Class: video.ClassCar}
	byDetector := func(s video.Source, ids []int) []float64 {
		out := make([]float64, len(ids))
		for k, i := range ids {
			out[k] = float64(vision.CountClass(vision.OracleDetector{}.Detect(s, i), udf.Class))
		}
		return out
	}
	// run scores frames 0..59 in calls of three frames and records, per
	// call, the scores or the index of the fault that fired.
	run := func(w *Source, score func(video.Source, []int) []float64) []string {
		var trace []string
		for lo := 0; lo < 60; lo += 3 {
			func() {
				defer func() {
					if r := recover(); r != nil {
						trace = append(trace, fmt.Sprintf("fault %v", r.(PanicValue).Call))
					}
				}()
				trace = append(trace, fmt.Sprint(score(w, []int{lo, lo + 1, lo + 2})))
			}()
		}
		return append(trace, fmt.Sprintf("%+v", w.Stats()))
	}
	for _, sched := range []string{"4@err:2", "7@panic:1,31@panic:3", "2@slow:5:40", "err:200~0.2", "1@err:1,5@slow:3:25,20@panic:2"} {
		s := MustParse(sched)
		w := WrapSource(src, s, 3)
		got := run(w, udf.Score)
		if st := w.Stats(); st.Transients+st.Panics+st.Slow == 0 {
			t.Fatalf("schedule %q fired nothing: %+v", sched, st)
		}
		want := run(WrapSource(src, s, 3), byDetector)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("schedule %q:\nthrough CountObjects %v\nthrough Scene        %v", sched, got, want)
		}
	}
}
