package everest

import (
	"reflect"
	"sync"
	"testing"

	"github.com/everest-project/everest/internal/oraclemux"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// TestOracleMuxCrossVideoBitIdentical is the M×N serving scenario the
// mux exists for, as a determinism lock: M videos × N queries each,
// all in flight together with UseMux, share one process-wide oracle
// dispatch queue — across indexes and videos — and every query must
// return bit-identically (results AND simulated per-plan charges) what
// its mux-off serial baseline returns. Consolidation is measured by
// BenchmarkOracleMux; this test locks that it is free of semantic
// effect.
func TestOracleMuxCrossVideoBitIdentical(t *testing.T) {
	type target struct {
		src *video.Synthetic
		ix  *Index
	}
	udf := vision.CountUDF{Class: video.ClassCar}
	mkCfgs := func() []Config {
		frame := smallCfg(5)
		win := smallCfg(3)
		win.Window = 30
		return []Config{frame, win}
	}
	var targets []target
	for _, seed := range []uint64{41, 43} {
		src := testSource(t, 3000, seed)
		ix, err := BuildIndex(src, udf, smallCfg(5))
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, target{src: src, ix: ix})
	}

	// Mux-off serial baselines, one per (video, query).
	baseline := make([][]goldenResult, len(targets))
	for ti, tg := range targets {
		baseline[ti] = make([]goldenResult, len(mkCfgs()))
		for qi, cfg := range mkCfgs() {
			res, err := tg.ix.Query(tg.src, udf, cfg)
			if err != nil {
				t.Fatal(err)
			}
			baseline[ti][qi] = goldenOf(res)
		}
	}

	// Mux-on: all M×N queries concurrently through the process-wide
	// dispatch queue.
	before := oraclemux.Shared().Stats()
	results := make([][]*Result, len(targets))
	errs := make([][]error, len(targets))
	var wg sync.WaitGroup
	for ti, tg := range targets {
		cfgs := mkCfgs()
		results[ti] = make([]*Result, len(cfgs))
		errs[ti] = make([]error, len(cfgs))
		for qi, cfg := range cfgs {
			cfg.UseMux = true
			wg.Add(1)
			go func(ti, qi int, tg target, cfg Config) {
				defer wg.Done()
				results[ti][qi], errs[ti][qi] = tg.ix.Query(tg.src, udf, cfg)
			}(ti, qi, tg, cfg)
		}
	}
	wg.Wait()
	after := oraclemux.Shared().Stats()
	if after.Requests <= before.Requests {
		t.Fatal("no confirmation batch reached the process-wide mux; the lock is vacuous")
	}
	for ti := range targets {
		for qi := range results[ti] {
			if errs[ti][qi] != nil {
				t.Fatalf("video %d query %d: %v", ti, qi, errs[ti][qi])
			}
			if g := goldenOf(results[ti][qi]); !reflect.DeepEqual(g, baseline[ti][qi]) {
				t.Fatalf("video %d query %d: muxed result diverged from its mux-off serial baseline\ngot %+v\nwant %+v",
					ti, qi, g, baseline[ti][qi])
			}
		}
	}
}
