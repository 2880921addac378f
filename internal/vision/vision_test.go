package vision

import (
	"math"
	"testing"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
)

func trafficSource(t *testing.T, frames int) *video.Synthetic {
	t.Helper()
	s, err := video.NewSynthetic(video.Config{
		Name: "vtest", Kind: video.KindTraffic, Class: video.ClassCar,
		Frames: frames, FPS: 30, Seed: 5, MeanPopulation: 3, BurstRate: 2,
		DistractorPopulation: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestIoU(t *testing.T) {
	a := BBox{0, 0, 1, 1}
	if got := a.IoU(a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self IoU = %v", got)
	}
	b := BBox{0.5, 0, 1, 1}
	if got := a.IoU(b); math.Abs(got-0.5/1.5) > 1e-12 {
		t.Fatalf("IoU = %v, want 1/3", got)
	}
	c := BBox{2, 2, 1, 1}
	if a.IoU(c) != 0 {
		t.Fatal("disjoint IoU should be 0")
	}
}

func TestOracleDetectorExact(t *testing.T) {
	src := trafficSource(t, 2000)
	det := OracleDetector{}
	for i := 0; i < 2000; i += 53 {
		got := CountClass(det.Detect(src, i), video.ClassCar)
		if got != src.TrueCountFast(i) {
			t.Fatalf("frame %d: oracle count %d, truth %d", i, got, src.TrueCountFast(i))
		}
	}
}

// TestCountUDFMatchesOracle: the counting UDF scores every frame of every
// catalog dataset, for every class the catalog generates, as the oracle
// detector's detections count it.
func TestCountUDFMatchesOracle(t *testing.T) {
	for _, spec := range video.Datasets() {
		src, err := spec.Build(0)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, src.NumFrames())
		for i := range ids {
			ids[i] = i
		}
		for _, class := range []string{video.ClassCar, video.ClassBus, video.ClassPerson, video.ClassBoat} {
			for i, s := range (CountUDF{Class: class}).Score(src, ids) {
				if want := CountClass(OracleDetector{}.Detect(src, i), class); s != float64(want) {
					t.Fatalf("%s frame %d: count(%s) scored %v, the oracle detects %d", spec.Name, i, class, s, want)
				}
			}
		}
	}
	if (CountUDF{}).Quantize().Step != 1 {
		t.Fatal("counting UDF must quantize at unit step")
	}
}

func TestNoisyDetectorsDeterministic(t *testing.T) {
	src := trafficSource(t, 500)
	for _, det := range []Detector{NewTinyDetector(), NewHOGDetector()} {
		a := det.Detect(src, 123)
		b := det.Detect(src, 123)
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic detection count", det.Name())
		}
		for i := range a {
			if a[i].Box != b[i].Box {
				t.Fatalf("%s: nondeterministic boxes", det.Name())
			}
		}
	}
}

func TestNoisyDetectorsAreWorseThanOracle(t *testing.T) {
	src := trafficSource(t, 3000)
	for _, det := range []Detector{NewTinyDetector(), NewHOGDetector()} {
		scorer := ApproxCountScorer{Det: det, Class: video.ClassCar}
		var absErr float64
		n := 0
		for i := 0; i < 3000; i += 7 {
			diff := scorer.Score(src, i) - float64(src.TrueCountFast(i))
			absErr += math.Abs(diff)
			n++
		}
		mean := absErr / float64(n)
		if mean < 0.3 {
			t.Fatalf("%s: mean abs error %v too small — baseline should be inaccurate", det.Name(), mean)
		}
		if mean > 6 {
			t.Fatalf("%s: mean abs error %v absurdly large", det.Name(), mean)
		}
	}
}

func TestNoisyDetectorCorrelatesWithTruth(t *testing.T) {
	// Inaccurate but not useless: counts should still correlate.
	src := trafficSource(t, 3000)
	scorer := ApproxCountScorer{Det: NewTinyDetector(), Class: video.ClassCar}
	var xs, ys []float64
	for i := 0; i < 3000; i += 5 {
		xs = append(xs, scorer.Score(src, i))
		ys = append(ys, float64(src.TrueCountFast(i)))
	}
	if r := pearson(xs, ys); r < 0.5 {
		t.Fatalf("tiny detector correlation %v too weak", r)
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
	den := math.Sqrt((sxx - sx*sx/n) * (syy - sy*sy/n))
	if den == 0 {
		return 0
	}
	return (sxy - sx*sy/n) / den
}

func TestDetectorCosts(t *testing.T) {
	cost := simclock.Default()
	if (OracleDetector{}).FrameCostMS(cost) != cost.OracleMS {
		t.Fatal("oracle cost wrong")
	}
	if NewTinyDetector().FrameCostMS(cost) >= (OracleDetector{}).FrameCostMS(cost) {
		t.Fatal("tiny detector must be cheaper than oracle")
	}
	if NewHOGDetector().FrameCostMS(cost) < cost.OracleMS {
		t.Fatal("HOG must be oracle-scale or slower (§4.1)")
	}
}

func TestTrackerRecoverIdentities(t *testing.T) {
	// Tracking oracle detections over consecutive frames should keep IDs
	// stable: the set of tracker IDs present across a short span should
	// roughly equal the number of true object identities.
	src := trafficSource(t, 2000)
	det := OracleDetector{}
	tracker := NewTracker()
	trueIDs := make(map[int]bool)
	trackIDs := make(map[int]bool)
	start := 0
	for i := start; i < start+120; i++ {
		dets := det.Detect(src, i)
		for _, d := range dets {
			trueIDs[d.ObjectID] = true
		}
		for k := range dets {
			dets[k].ObjectID = 0
		}
		for _, d := range tracker.Track(dets) {
			trackIDs[d.ObjectID] = true
		}
	}
	if len(trueIDs) == 0 {
		t.Skip("no objects in span")
	}
	ratio := float64(len(trackIDs)) / float64(len(trueIDs))
	if ratio > 2.5 {
		t.Fatalf("tracker fragmented identities: %d tracks for %d objects", len(trackIDs), len(trueIDs))
	}
}

func TestTrackerAssignsFreshIDs(t *testing.T) {
	tr := NewTracker()
	d1 := tr.Track([]Detection{{Class: "car", Box: BBox{0.1, 0.1, 0.2, 0.2}}})
	if d1[0].ObjectID == 0 {
		t.Fatal("no ID assigned")
	}
	// Same position next frame: same ID.
	d2 := tr.Track([]Detection{{Class: "car", Box: BBox{0.11, 0.1, 0.2, 0.2}}})
	if d2[0].ObjectID != d1[0].ObjectID {
		t.Fatal("overlapping detection did not inherit ID")
	}
	// Different class at same position: new ID.
	d3 := tr.Track([]Detection{{Class: "bus", Box: BBox{0.11, 0.1, 0.2, 0.2}}})
	if d3[0].ObjectID == d2[0].ObjectID {
		t.Fatal("class mismatch must not match tracks")
	}
}

func TestMaterializeRelation(t *testing.T) {
	src := trafficSource(t, 300)
	rows := MaterializeRelation(src, OracleDetector{}, 0, 300)
	// Row count equals total object appearances.
	want := 0
	for i := 0; i < 300; i++ {
		want += len(src.Scene(i).Objects)
	}
	if len(rows) != want {
		t.Fatalf("relation has %d rows, want %d", len(rows), want)
	}
	s := FormatRelation(rows, 5)
	if len(s) == 0 {
		t.Fatal("empty formatting")
	}
}

func TestTailgateUDF(t *testing.T) {
	spec, err := video.DatasetByName("Dashcam-California")
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.Build(5000)
	if err != nil {
		t.Fatal(err)
	}
	udf := TailgateUDF{}
	ids := []int{0, 100, 2500, 4999}
	scores := udf.Score(src, ids)
	for k, i := range ids {
		want := math.Max(0, 40-src.LeadGap(i))
		if math.Abs(scores[k]-want) > 1e-9 {
			t.Fatalf("frame %d: score %v, want %v", i, scores[k], want)
		}
	}
	q := udf.Quantize()
	if q.Step != 0.5 || q.MinLevel != 0 || q.MaxLevel != 80 {
		t.Fatalf("quantization %+v unexpected", q)
	}
}

func TestSentimentUDF(t *testing.T) {
	spec, err := video.DatasetByName("Daxi-old-street")
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.Build(5000)
	if err != nil {
		t.Fatal(err)
	}
	udf := SentimentUDF{}
	scores := udf.Score(src, []int{42, 4242})
	for _, s := range scores {
		if s < 0 || s > 100 {
			t.Fatalf("sentiment score %v out of range", s)
		}
	}
}
