// Package vision is the detector substrate of the Everest reproduction.
//
// It supplies the accurate-but-slow oracle models the paper plugs in as
// UDFs (a YOLOv3-class object detector, a monodepth-class depth estimator,
// a visual sentimentalizer), the cheap noisy baselines (TinyYOLOv3, HOG),
// an IoU object tracker, and the video-relation materialization of the
// paper's Table 2. Oracles read the simulator's ground-truth scene graph —
// Everest itself never looks inside an oracle, it only pays the oracle's
// simulated inference cost and consumes its scores.
package vision

import (
	"fmt"
	"math"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/video"
)

// BBox is an axis-aligned bounding box in normalized coordinates. The
// paper's relation stores polygons; axis-aligned boxes are the polygon
// form every referenced detector actually emits.
type BBox struct {
	X, Y, W, H float64
}

// IoU returns the intersection-over-union of two boxes.
func (b BBox) IoU(o BBox) float64 {
	x0 := math.Max(b.X, o.X)
	y0 := math.Max(b.Y, o.Y)
	x1 := math.Min(b.X+b.W, o.X+o.W)
	y1 := math.Min(b.Y+b.H, o.Y+o.H)
	if x1 <= x0 || y1 <= y0 {
		return 0
	}
	inter := (x1 - x0) * (y1 - y0)
	union := b.W*b.H + o.W*o.H - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// Detection is one detected object in one frame.
type Detection struct {
	// Frame is the frame index (the relation's timestamp).
	Frame int
	// Class is the predicted class label.
	Class string
	// Box is the bounding polygon.
	Box BBox
	// ObjectID is the tracker-assigned identity (0 before tracking).
	ObjectID int
	// Confidence is the detector's score for the detection.
	Confidence float64
}

// Detector produces per-frame detections.
type Detector interface {
	// Name identifies the detector in reports.
	Name() string
	// Detect returns the detections for frame i of src.
	Detect(src video.Source, i int) []Detection
	// FrameCostMS is the simulated per-frame inference cost.
	FrameCostMS(cost simclock.CostModel) float64
}

// OracleDetector is the ground-truth detector (the YOLOv3 stand-in): it
// reads the scene graph exactly and charges oracle-scale cost.
type OracleDetector struct{}

// Name implements Detector.
func (OracleDetector) Name() string { return "oracle-yolov3" }

// Detect implements Detector.
func (OracleDetector) Detect(src video.Source, i int) []Detection {
	sc := src.Scene(i)
	out := make([]Detection, 0, len(sc.Objects))
	for _, o := range sc.Objects {
		out = append(out, Detection{
			Frame:      i,
			Class:      o.Class,
			Box:        BBox{X: o.X, Y: o.Y, W: o.W, H: o.H},
			ObjectID:   o.ID,
			Confidence: 1,
		})
	}
	return out
}

// FrameCostMS implements Detector.
func (OracleDetector) FrameCostMS(cost simclock.CostModel) float64 { return cost.OracleMS }

// CountClass counts detections of a class.
func CountClass(dets []Detection, class string) int {
	n := 0
	for _, d := range dets {
		if d.Class == class {
			n++
		}
	}
	return n
}

// UDF is a user-defined scoring function in the paper's sense (Fig. 3): it
// computes exact frame scores with an accurate deep model and declares how
// scores are quantized into x-tuple levels.
type UDF interface {
	// Name identifies the UDF.
	Name() string
	// Score returns the exact raw score of each listed frame. It must be
	// safe for concurrent calls: the scale-out shards and concurrent
	// session queries (Session.QueryBatch) invoke it from multiple
	// goroutines at once.
	Score(src video.Source, ids []int) []float64
	// Quantize returns the level-grid options for this score domain.
	// Counting UDFs use step 1; others supply their step as §3.2 requires.
	Quantize() uncertain.QuantizeOptions
	// OracleCostMS is the per-frame cost of the accurate model behind the
	// UDF.
	OracleCostMS(cost simclock.CostModel) float64
}

// CountUDF scores a frame by the number of objects of a class found by the
// oracle detector — the paper's default UDF (Fig. 3). It asks the source
// for the count (video.Source.CountObjects), which is what
// OracleDetector.Detect followed by CountClass returns, without building
// the frame's scene or detections.
type CountUDF struct {
	// Class is the object-of-interest.
	Class string
}

// Name implements UDF.
func (u CountUDF) Name() string { return fmt.Sprintf("count(%s)", u.Class) }

// Score implements UDF.
func (u CountUDF) Score(src video.Source, ids []int) []float64 {
	out := make([]float64, len(ids))
	for k, i := range ids {
		out[k] = float64(src.CountObjects(i, u.Class))
	}
	return out
}

// Quantize implements UDF.
func (u CountUDF) Quantize() uncertain.QuantizeOptions {
	return uncertain.DefaultCountingOptions()
}

// OracleCostMS implements UDF.
func (u CountUDF) OracleCostMS(cost simclock.CostModel) float64 { return cost.OracleMS }

// TailgateUDF scores a dashcam frame by tailgating danger: the accurate
// depth estimator measures the gap to the leading vehicle, and the score
// grows as the gap shrinks (score = maxGap − gap, clamped at 0). Per §3.2,
// a non-counting UDF must supply its quantization step.
type TailgateUDF struct {
	// MaxGap is the gap (metres) at or beyond which danger is 0; zero
	// means 40.
	MaxGap float64
	// Step is the quantization step in metres; zero means 0.5.
	Step float64
}

func (u TailgateUDF) maxGap() float64 {
	if u.MaxGap == 0 {
		return 40
	}
	return u.MaxGap
}

// Name implements UDF.
func (u TailgateUDF) Name() string { return "tailgate-degree" }

// Score implements UDF.
func (u TailgateUDF) Score(src video.Source, ids []int) []float64 {
	s, ok := src.(*video.Synthetic)
	if !ok {
		panic("vision: TailgateUDF requires a synthetic dashcam source")
	}
	out := make([]float64, len(ids))
	for k, i := range ids {
		out[k] = math.Max(0, u.maxGap()-s.LeadGap(i))
	}
	return out
}

// Quantize implements UDF.
func (u TailgateUDF) Quantize() uncertain.QuantizeOptions {
	step := u.Step
	if step == 0 {
		step = 0.5
	}
	return uncertain.QuantizeOptions{
		Step:     step,
		MinLevel: 0,
		MaxLevel: int(math.Ceil(u.maxGap() / step)),
	}
}

// OracleCostMS implements UDF: the depth estimator is oracle-scale.
func (u TailgateUDF) OracleCostMS(cost simclock.CostModel) float64 { return cost.OracleMS }

// SentimentUDF scores a frame by crowd happiness in [0,100] via a deep
// visual sentimentalizer (the thumbnail-generation use case).
type SentimentUDF struct {
	// Step is the quantization step; zero means 1.
	Step float64
}

// Name implements UDF.
func (u SentimentUDF) Name() string { return "sentiment" }

// Score implements UDF.
func (u SentimentUDF) Score(src video.Source, ids []int) []float64 {
	s, ok := src.(*video.Synthetic)
	if !ok {
		panic("vision: SentimentUDF requires a synthetic street source")
	}
	out := make([]float64, len(ids))
	for k, i := range ids {
		out[k] = s.Happiness(i)
	}
	return out
}

// Quantize implements UDF.
func (u SentimentUDF) Quantize() uncertain.QuantizeOptions {
	step := u.Step
	if step == 0 {
		step = 1
	}
	return uncertain.QuantizeOptions{Step: step, MinLevel: 0, MaxLevel: int(math.Ceil(100 / step))}
}

// OracleCostMS implements UDF.
func (u SentimentUDF) OracleCostMS(cost simclock.CostModel) float64 { return cost.OracleMS }
