package cmdn

import (
	"reflect"
	"strings"
	"testing"

	"github.com/everest-project/everest/internal/simclock"
)

// TestTrainProcsBitIdentical is the package-level determinism contract:
// the grid may train on any number of workers, yet the selected proxy,
// every candidate report, the calibration factor and downstream
// predictions must match the serial path bit for bit.
func TestTrainProcsBitIdentical(t *testing.T) {
	src := trafficSource(t, 1500)
	train := makeSamples(src, sampleEvery(1500, 9))
	holdout := makeSamples(src, offsetEvery(1500, 21, 4))
	grid := []Hyper{{G: 5, H: 20}, {G: 8, H: 30}, {G: 12, H: 20}}

	run := func(procs int) (*Proxy, []CandidateReport) {
		cfg := Config{Grid: grid, Epochs: 5, Seed: 11, Procs: procs}
		p, reports, err := Train(train, holdout, cfg, nil, simclock.Default())
		if err != nil {
			t.Fatal(err)
		}
		return p, reports
	}
	serial, serialReports := run(1)
	for _, procs := range []int{2, 8} {
		par, parReports := run(procs)
		if par.HoldoutNLL() != serial.HoldoutNLL() {
			t.Fatalf("procs=%d: holdout NLL %v != serial %v", procs, par.HoldoutNLL(), serial.HoldoutNLL())
		}
		if par.Hyper() != serial.Hyper() {
			t.Fatalf("procs=%d: selected %+v != serial %+v", procs, par.Hyper(), serial.Hyper())
		}
		if par.Calibration() != serial.Calibration() {
			t.Fatalf("procs=%d: calibration %v != serial %v", procs, par.Calibration(), serial.Calibration())
		}
		for i := range serialReports {
			if parReports[i] != serialReports[i] {
				t.Fatalf("procs=%d: report %d %+v != serial %+v", procs, i, parReports[i], serialReports[i])
			}
		}
		for _, f := range []int{17, 430, 977, 1321} {
			sm := serial.PredictFrame(src.Render(f))
			pm := par.PredictFrame(src.Render(f))
			if len(sm) != len(pm) {
				t.Fatalf("procs=%d frame %d: mixture sizes differ", procs, f)
			}
			for c := range sm {
				if sm[c] != pm[c] {
					t.Fatalf("procs=%d frame %d component %d: %+v != %+v", procs, f, c, pm[c], sm[c])
				}
			}
		}
	}
}

// TestTrainIssueOrderIrrelevant: grid points are built in grid order but
// issued to the workers largest-first, so which point trains when, and
// next to which others, depends on how the grid is listed and on Procs.
// Neither may show: for every listing — ascending cost (issue order is
// the reverse of grid order), descending, mixed with a tie — the proxy,
// every report, the clock charge and a prediction are bit-identical on 1,
// 2 and 8 workers; and the point at index 0, whose RNG stream is keyed by
// that index, scores the holdout NLL it scores as a grid of one.
func TestTrainIssueOrderIrrelevant(t *testing.T) {
	src := trafficSource(t, 1200)
	train := makeSamples(src, sampleEvery(1200, 9))
	holdout := makeSamples(src, offsetEvery(1200, 21, 4))
	small, mid, big := Hyper{G: 5, H: 20}, Hyper{G: 8, H: 30}, Hyper{G: 12, H: 40}
	listings := [][]Hyper{
		{small, mid, big, mid},
		{big, mid, mid, small},
		{mid, big, small, mid},
	}
	type outcome struct {
		Hyper      Hyper
		NLL, Calib float64
		Reports    []CandidateReport
		ChargeMS   float64
		Mix        []float64
	}
	run := func(grid []Hyper, procs int) outcome {
		clock := simclock.NewClock()
		p, reports, err := Train(train, holdout, Config{Grid: grid, Epochs: 3, Seed: 11, Procs: procs}, clock, simclock.Default())
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{Hyper: p.Hyper(), NLL: p.HoldoutNLL(), Calib: p.Calibration(), Reports: reports, ChargeMS: clock.TotalMS()}
		for _, c := range p.PredictFrame(src.Render(430)) {
			o.Mix = append(o.Mix, c.Weight, c.Mean, c.Sigma)
		}
		return o
	}
	for li, grid := range listings {
		serial := run(grid, 1)
		if serial.ChargeMS == 0 {
			t.Fatal("training charged nothing to the clock")
		}
		for _, procs := range []int{2, 8} {
			if got := run(grid, procs); !reflect.DeepEqual(got, serial) {
				t.Fatalf("listing %d procs=%d: %+v, serial %+v", li, procs, got, serial)
			}
		}
		alone := run(grid[:1], 1).Reports[0]
		found := false
		for _, r := range serial.Reports {
			found = found || r == alone
		}
		if !found {
			t.Fatalf("listing %d: point 0 reports %+v as a grid of one but not among %+v", li, alone, serial.Reports)
		}
	}
}

// TestTrainErrorSameOnAnyWorkers: fits run out of grid order and on other
// goroutines, but Train still returns the failing point of lowest grid
// index — here every point fails alike, on a short input row, and the
// error is the same on 1, 2 and 8 workers.
func TestTrainErrorSameOnAnyWorkers(t *testing.T) {
	src := trafficSource(t, 300)
	train := makeSamples(src, sampleEvery(300, 9))
	holdout := makeSamples(src, offsetEvery(300, 21, 4))
	train[5].X = train[5].X[:10]
	var want string
	for _, procs := range []int{1, 2, 8} {
		_, _, err := Train(train, holdout, Config{Grid: []Hyper{{G: 5, H: 20}, {G: 12, H: 40}, {G: 8, H: 30}}, Epochs: 1, Seed: 3, Procs: procs}, nil, simclock.Default())
		if err == nil || !strings.Contains(err.Error(), "input 5") {
			t.Fatalf("procs=%d: error %v, want the trainer's complaint about input 5", procs, err)
		}
		if want == "" {
			want = err.Error()
		}
		if err.Error() != want {
			t.Fatalf("procs=%d: error %q, procs=1 gave %q", procs, err, want)
		}
	}
}

func TestProxyCloneForInference(t *testing.T) {
	src := trafficSource(t, 800)
	train := makeSamples(src, sampleEvery(800, 7))
	holdout := makeSamples(src, offsetEvery(800, 19, 3))
	proxy, _, err := Train(train, holdout, Config{Grid: []Hyper{{G: 5, H: 20}}, Epochs: 4, Seed: 13}, nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	clone := proxy.CloneForInference()
	for _, f := range []int{3, 99, 512, 790} {
		want := proxy.PredictFrame(src.Render(f))
		got := clone.PredictFrame(src.Render(f))
		if len(want) != len(got) {
			t.Fatalf("frame %d: clone mixture size differs", f)
		}
		for c := range want {
			if want[c] != got[c] {
				t.Fatalf("frame %d component %d: clone %+v vs %+v", f, c, got[c], want[c])
			}
		}
	}
}

// BenchmarkCMDNGridTrainSerial and BenchmarkCMDNGridTrainParallel compare
// the paper's full 12-point grid trained on one worker vs all cores.
func benchGridTrain(b *testing.B, procs int) {
	src := trafficSource(b, 2000)
	train := makeSamples(src, sampleEvery(2000, 7))
	holdout := makeSamples(src, offsetEvery(2000, 13, 3))
	cfg := Config{Epochs: 5, Seed: 1, Procs: procs} // nil Grid → full 12-point paper grid
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Train(train, holdout, cfg, nil, simclock.Default()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCMDNGridTrainSerial(b *testing.B)   { benchGridTrain(b, 1) }
func BenchmarkCMDNGridTrainParallel(b *testing.B) { benchGridTrain(b, 0) }
