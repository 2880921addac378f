package video

import (
	"math"
	"testing"
)

func testSource(t *testing.T, frames int) *Synthetic {
	t.Helper()
	s, err := NewSynthetic(Config{
		Name: "test", Kind: KindTraffic, Class: ClassCar, Frames: frames,
		FPS: 30, Seed: 1, MeanPopulation: 3, BurstRate: 2, DailyCycle: true,
		DistractorPopulation: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestNewSyntheticValidation: a bad configuration is rejected by the
// constructor, not by the first frame read.
func TestNewSyntheticValidation(t *testing.T) {
	if _, err := NewSynthetic(Config{Frames: 0}); err == nil {
		t.Fatal("zero frames should fail")
	}
	if _, err := NewSynthetic(Config{Frames: -5}); err == nil {
		t.Fatal("negative frames should fail")
	}
	if _, err := NewSynthetic(Config{Frames: 10, MeanPopulation: -1}); err == nil {
		t.Fatal("negative population should fail")
	}
	if _, err := NewSynthetic(Config{Frames: 10, DistractorPopulation: -1}); err == nil {
		t.Fatal("negative distractor population should fail")
	}
}

// TestSceneCountsMatchPrecomputed: the ground-truth count is the count
// the oracle sees, on every frame of every catalog dataset — a dashcam's
// lead vehicle, which its scene lists as a car, included.
func TestSceneCountsMatchPrecomputed(t *testing.T) {
	for _, s := range append(catalogSources(t), testSource(t, 5000)) {
		for i := 0; i < s.NumFrames(); i++ {
			want := s.Scene(i).CountClass(s.TargetClass())
			if got := s.TrueCountFast(i); got != want {
				t.Fatalf("%s frame %d: TrueCountFast = %d, scene lists %d", s.Name(), i, got, want)
			}
			if got := s.CountObjects(i, s.TargetClass()); got != want {
				t.Fatalf("%s frame %d: CountObjects = %d, scene lists %d", s.Name(), i, got, want)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := testSource(t, 2000)
	b := testSource(t, 2000)
	for i := 0; i < 2000; i += 101 {
		fa, fb := a.Render(i), b.Render(i)
		for p := range fa.Pix {
			if fa.Pix[p] != fb.Pix[p] {
				t.Fatalf("frame %d pixel %d differs between identical configs", i, p)
			}
		}
		if a.TrueCountFast(i) != b.TrueCountFast(i) {
			t.Fatalf("frame %d count differs", i)
		}
	}
}

func TestDifferentSeedsDifferentContent(t *testing.T) {
	a := testSource(t, 2000)
	cfg := a.cfg
	cfg.Seed = 999
	b, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < 2000; i++ {
		if a.TrueCountFast(i) == b.TrueCountFast(i) {
			same++
		}
	}
	if same == 2000 {
		t.Fatal("different seeds produced identical count series")
	}
}

func TestRenderedPixelsInRange(t *testing.T) {
	s := testSource(t, 500)
	f := s.Render(100)
	w, h := s.Resolution()
	if f.W != w || f.H != h || len(f.Pix) != w*h {
		t.Fatalf("unexpected frame geometry %dx%d len %d", f.W, f.H, len(f.Pix))
	}
	for _, v := range f.Pix {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("pixel out of range: %v", v)
		}
	}
}

func TestTemporalLocality(t *testing.T) {
	// Consecutive frames must be much more similar than distant frames —
	// the property the difference detector exploits.
	s := testSource(t, 3000)
	var nearSum, farSum float64
	n := 0
	for i := 100; i < 2800; i += 97 {
		f0 := s.Render(i)
		f1 := s.Render(i + 1)
		ffar := s.Render(i + 150)
		near, err := f0.MSE(f1)
		if err != nil {
			t.Fatal(err)
		}
		far, err := f0.MSE(ffar)
		if err != nil {
			t.Fatal(err)
		}
		nearSum += near
		farSum += far
		n++
	}
	if nearSum/float64(n) >= farSum/float64(n) {
		t.Fatalf("no temporal locality: near MSE %v >= far MSE %v",
			nearSum/float64(n), farSum/float64(n))
	}
}

func TestPixelScoreCorrelation(t *testing.T) {
	// Mean pixel intensity must correlate positively with object count;
	// otherwise the CMDN has nothing to learn.
	s := testSource(t, 4000)
	var xs, ys []float64
	for i := 0; i < 4000; i += 13 {
		f := s.Render(i)
		mean := 0.0
		for _, v := range f.Pix {
			mean += v
		}
		xs = append(xs, mean/float64(len(f.Pix)))
		ys = append(ys, float64(s.TrueCountFast(i)))
	}
	if r := pearson(xs, ys); r < 0.3 {
		t.Fatalf("pixel/count correlation %v too weak for proxy learning", r)
	}
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, syy, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
	}
	num := sxy - sx*sy/n
	den := math.Sqrt((sxx - sx*sx/n) * (syy - sy*sy/n))
	if den == 0 {
		return 0
	}
	return num / den
}

func TestCountAutocorrelation(t *testing.T) {
	// Counts must be strongly autocorrelated at lag 1 (objects persist
	// across frames) — the temporal locality that makes Top-K windows and
	// difference detection meaningful.
	s := testSource(t, 10000)
	var x, y []float64
	for i := 0; i+1 < 10000; i++ {
		x = append(x, float64(s.TrueCountFast(i)))
		y = append(y, float64(s.TrueCountFast(i+1)))
	}
	if r := pearson(x, y); r < 0.9 {
		t.Fatalf("lag-1 autocorrelation %v, want > 0.9", r)
	}
}

func TestBurstsCreateSkew(t *testing.T) {
	// The max count must be well above the mean, so Top-K targets exist.
	s := testSource(t, 20000)
	sum, maxC := 0, 0
	for i := 0; i < 20000; i++ {
		c := s.TrueCountFast(i)
		sum += c
		if c > maxC {
			maxC = c
		}
	}
	mean := float64(sum) / 20000
	if float64(maxC) < 2*mean {
		t.Fatalf("max count %d not skewed vs mean %.2f", maxC, mean)
	}
}

func TestDashcamLeadGap(t *testing.T) {
	spec, err := DatasetByName("Dashcam-California")
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.Build(20000)
	if err != nil {
		t.Fatal(err)
	}
	minGap, maxGap := math.Inf(1), 0.0
	for i := 0; i < s.NumFrames(); i++ {
		g := s.LeadGap(i)
		if g <= 0 {
			t.Fatalf("frame %d: non-positive gap %v", i, g)
		}
		minGap = math.Min(minGap, g)
		maxGap = math.Max(maxGap, g)
		if sc := s.Scene(i); sc.LeadGap != g {
			t.Fatalf("Scene.LeadGap mismatch at %d", i)
		}
	}
	if minGap > 10 {
		t.Fatalf("no close-approach events: min gap %v", minGap)
	}
	if maxGap < 30 {
		t.Fatalf("no cruising: max gap %v", maxGap)
	}
}

func TestStreetHappiness(t *testing.T) {
	spec, err := DatasetByName("Daxi-old-street")
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.Build(30000)
	if err != nil {
		t.Fatal(err)
	}
	hi := 0.0
	for i := 0; i < s.NumFrames(); i++ {
		h := s.Happiness(i)
		if h < 0 || h > 100 {
			t.Fatalf("happiness out of range: %v", h)
		}
		hi = math.Max(hi, h)
	}
	if hi < 70 {
		t.Fatalf("no happy moments generated: max %v", hi)
	}
}

func TestAllDatasetsBuild(t *testing.T) {
	for _, spec := range Datasets() {
		s, err := spec.Build(1000)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if s.Name() != spec.Name {
			t.Fatalf("name mismatch: %s vs %s", s.Name(), spec.Name)
		}
		if s.NumFrames() != 1000 {
			t.Fatalf("%s: frames %d", spec.Name, s.NumFrames())
		}
		_ = s.Render(500)
		_ = s.Scene(999)
	}
	if len(CountingDatasets()) != 5 || len(DashcamDatasets()) != 2 {
		t.Fatal("dataset grouping wrong")
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Fatal("unknown dataset should error")
	}
}

// TestDatasetCatalogCopies: the accessors hand out copies, so a caller
// that writes the slice it got changes no later lookup, and a lookup by
// name allocates nothing.
func TestDatasetCatalogCopies(t *testing.T) {
	want, err := DatasetByName("Archie")
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range [][]DatasetSpec{Datasets(), CountingDatasets()} {
		got[0].Name, got[0].Config.Seed = "mutated", 1
		_ = append(got[:1], DatasetSpec{Name: "appended"})
	}
	dashcam := DashcamDatasets()
	_ = append(dashcam[:0], DatasetSpec{Name: "appended"})
	if again, err := DatasetByName("Archie"); err != nil || again != want {
		t.Fatalf("after callers wrote their copies, Archie reads %+v (err %v), want %+v", again, err, want)
	}
	if all := Datasets(); all[1].Name != "Daxi-old-street" || all[5].Name != "Dashcam-California" {
		t.Fatalf("after callers appended to their copies, the catalog reads %s, %s", all[1].Name, all[5].Name)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = DatasetByName("Dashcam-Greenport") }); n != 0 {
		t.Fatalf("DatasetByName allocated %.0f times", n)
	}
}

func TestDefaultScaleBuild(t *testing.T) {
	spec, _ := DatasetByName("Archie")
	s, err := spec.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	want := int(float64(spec.PaperFrames) * DefaultScale)
	if s.NumFrames() != want {
		t.Fatalf("default build frames %d, want %d", s.NumFrames(), want)
	}
}

func TestSceneOutOfRangePanics(t *testing.T) {
	s := testSource(t, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Scene should panic")
		}
	}()
	s.Scene(100)
}

func TestMSESizeMismatch(t *testing.T) {
	a := Frame{W: 2, H: 2, Pix: make([]float64, 4)}
	b := Frame{W: 3, H: 2, Pix: make([]float64, 6)}
	if _, err := a.MSE(b); err == nil {
		t.Fatal("size mismatch should error")
	}
}

func TestObjectIDsPersistAcrossFrames(t *testing.T) {
	s := testSource(t, 2000)
	// Find a frame with objects; its object IDs should also appear in the
	// next frame (sojourn >> 1 frame).
	for i := 0; i < 1900; i++ {
		sc := s.Scene(i)
		if len(sc.Objects) == 0 {
			continue
		}
		next := s.Scene(i + 1)
		nextIDs := make(map[int]bool)
		for _, o := range next.Objects {
			nextIDs[o.ID] = true
		}
		persisted := 0
		for _, o := range sc.Objects {
			if nextIDs[o.ID] {
				persisted++
			}
		}
		if persisted == 0 && len(sc.Objects) > 1 {
			t.Fatalf("frame %d: no object persisted to frame %d", i, i+1)
		}
		return
	}
	t.Skip("no populated frame found")
}
