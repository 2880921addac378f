// Package video is the video substrate of the Everest reproduction: a
// deterministic, procedurally generated stand-in for the paper's real
// videos (Table 7).
//
// A Source exposes exactly what the rest of the system consumes from a
// video: decoded pixels per frame (for the difference detector and the
// CMDN proxy), a ground-truth scene graph per frame (read only by the
// detectors in internal/vision) and that scene's per-class object count
// (read by the counting oracle and ground-truth tooling, without
// building the scene). Scenes are generated from seeded
// object arrival/departure processes with temporal locality — bursts,
// daily cycles, camera motion — so Top-K targets are rare, clustered
// moments, as in real footage. Pixels are rendered lazily and
// deterministically; no frame is stored. What a Synthetic does keep is
// the event timeline (generated once, by the first frame read — not by
// NewSynthetic, so describing a video costs nothing), the static
// background of a fixed camera (rendered once, copied into every frame)
// and a pool of pixel buffers that released frames return to
// (Frame.Release), so a pass that decodes a frame, consumes it and
// releases it runs in constant memory.
package video

import (
	"fmt"
	"sync"
)

// Class labels used by the simulator and detectors.
const (
	ClassCar    = "car"
	ClassBus    = "bus"
	ClassPerson = "person"
	ClassBoat   = "boat"
)

// Object is one ground-truth object instance in a frame. Coordinates are
// normalized to [0,1] in both axes; W/H are the half-free extents.
type Object struct {
	// ID is the persistent identity of the object across frames (what the
	// paper's tracker recovers as objectID).
	ID int
	// Class is the object class label.
	Class string
	// X, Y locate the top-left corner; W, H the extent (normalized).
	X, Y, W, H float64
	// Shade is the rendered intensity in [0,1].
	Shade float64
}

// Scene is the ground truth of one frame.
type Scene struct {
	// Objects lists all visible objects.
	Objects []Object
	// LeadGap is the distance in metres to the leading vehicle (dashcam
	// sources only; 0 elsewhere).
	LeadGap float64
	// Happiness is the crowd-sentiment signal in [0,100] (street sources
	// only; 0 elsewhere).
	Happiness float64
}

// CountClass returns the number of objects of the given class.
func (s Scene) CountClass(class string) int {
	n := 0
	for _, o := range s.Objects {
		if o.Class == class {
			n++
		}
	}
	return n
}

// Frame is one decoded grayscale frame. It belongs to the caller of
// Render, which may hand its pixel buffer back with Release; copies of
// a Frame value share that buffer.
type Frame struct {
	// Index is the frame's position in the video.
	Index int
	// W, H are the pixel dimensions.
	W, H int
	// Pix holds W*H row-major grayscale intensities in [0,1].
	Pix []float64

	// buf is the recyclable buffer behind Pix; nil when the frame's
	// source does not recycle.
	buf *pixBuf
}

// pixBuf is a pixel buffer that remembers the pool it returns to, so a
// Frame finds its way home through any Source wrapper that passed it
// along by value.
type pixBuf struct {
	pix  []float64
	objs []Object // Render's scene-walk scratch; never reachable from a Frame
	pool *sync.Pool
}

// Release returns the frame's pixel buffer to the source that rendered
// it, for a later Render to reuse. Call it at most once per rendered
// frame — copies of the Frame value included — and only after the last
// read of Pix. Never releasing is always safe: the buffer is then
// ordinary garbage. On the zero Frame, and on a frame from a Source
// that does not recycle, it is a no-op.
func (f Frame) Release() {
	if f.buf != nil {
		f.buf.pool.Put(f.buf)
	}
}

// MSE returns the mean squared error between two frames of equal size.
func (f Frame) MSE(g Frame) (float64, error) {
	if f.W != g.W || f.H != g.H {
		return 0, fmt.Errorf("video: frame size mismatch %dx%d vs %dx%d", f.W, f.H, g.W, g.H)
	}
	sum := 0.0
	for i := range f.Pix {
		d := f.Pix[i] - g.Pix[i]
		sum += d * d
	}
	return sum / float64(len(f.Pix)), nil
}

// Source is a video: random access to scenes (ground truth) and rendered
// frames (pixels). Implementations must be deterministic and safe for
// concurrent reads.
type Source interface {
	// Name identifies the dataset.
	Name() string
	// NumFrames is the total frame count.
	NumFrames() int
	// FPS is the frame rate.
	FPS() int
	// TargetClass is the dataset's object-of-interest.
	TargetClass() string
	// Scene returns frame i's ground truth. Only detectors may call this.
	Scene(i int) Scene
	// CountObjects returns Scene(i).CountClass(class) without building
	// the scene. Only oracles and ground-truth tooling may call this; a
	// wrapper that intercepts Scene intercepts this the same way.
	CountObjects(i int, class string) int
	// Render decodes frame i's pixels. The returned frame is the
	// caller's: nothing else reads or writes its Pix until the caller
	// releases it (Frame.Release), which is optional. A wrapper returns
	// the frame it was given, by value, so Release still reaches the
	// source that owns the buffer.
	Render(i int) Frame
	// Resolution returns the rendered width and height.
	Resolution() (w, h int)
}
