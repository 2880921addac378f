package video

import (
	"fmt"
	"math"
	"sync"

	"github.com/everest-project/everest/internal/xrand"
)

// Kind selects the scene dynamics of a synthetic source.
type Kind int

const (
	// KindTraffic is a fixed camera over a road: target objects cross the
	// view with Poisson arrivals, daily-cycle rate modulation and bursts.
	KindTraffic Kind = iota
	// KindStreet is a (possibly moving) camera over a pedestrian street;
	// it additionally carries a crowd-sentiment signal.
	KindStreet
	// KindCanal is a slow waterway camera (long object sojourns).
	KindCanal
	// KindDashcam is a forward-facing vehicle camera: a leading vehicle at
	// an Ornstein–Uhlenbeck-varying gap plus ambient traffic.
	KindDashcam
)

// Config parameterizes a synthetic source.
type Config struct {
	// Name identifies the dataset in reports.
	Name string
	// Kind selects scene dynamics.
	Kind Kind
	// Class is the object-of-interest (counting target).
	Class string
	// Frames is the total number of frames.
	Frames int
	// FPS is the frame rate.
	FPS int
	// W, H set the render resolution; 0 means 64×64.
	W, H int
	// Seed makes the source deterministic.
	Seed uint64
	// MeanPopulation is the average number of concurrent target objects.
	MeanPopulation float64
	// MeanSojournSec is the average seconds an object stays in view.
	MeanSojournSec float64
	// BurstRate is the expected number of high-traffic bursts per hour of
	// video; bursts multiply the arrival rate 3–6×, creating the rare
	// high-count moments Top-K queries look for.
	BurstRate float64
	// DailyCycle modulates arrivals with a slow sinusoid when true.
	DailyCycle bool
	// CameraDrift is horizontal background drift in fraction-of-width per
	// second (moving-camera datasets).
	CameraDrift float64
	// DistractorPopulation is the average concurrent count of
	// non-target-class objects.
	DistractorPopulation float64
	// HeavyDistractorPopulation is the average concurrent count of large
	// bright non-target objects (buses/trucks). One bus carries the pixel
	// mass of several cars but counts as zero for a car query, which is
	// what defeats naive global-intensity proxies on real footage.
	HeavyDistractorPopulation float64
	// NoiseAmp is per-pixel sensor noise amplitude (default 0.02).
	NoiseAmp float64
}

func (c Config) withDefaults() Config {
	if c.W == 0 {
		c.W = 64
	}
	if c.H == 0 {
		c.H = 64
	}
	if c.FPS == 0 {
		c.FPS = 30
	}
	if c.MeanSojournSec == 0 {
		c.MeanSojournSec = 3
	}
	if c.NoiseAmp == 0 {
		c.NoiseAmp = 0.005
	}
	if c.Class == "" {
		c.Class = ClassCar
	}
	return c
}

// event is one object's passage through the view.
type event struct {
	id    int
	class string
	t0    int // first frame
	dur   int // frames in view
	lane  float64
	size  float64
	shade float64
	speed float64 // horizontal crossings per sojourn (direction via sign)
	// phase0 is the starting position along the path in [0,1): crossing
	// objects start at 0 (the view edge); congested or turning traffic
	// appears mid-view, which spreads simultaneous arrivals across the
	// frame instead of stacking them at the edges.
	phase0 float64
}

// Synthetic is a procedurally generated video Source. Constructing one
// validates the configuration and derives its seeds; the event timeline
// and the tables derived from it are generated by the first call that
// reads a frame (Scene — and through it Render —, CountObjects — and
// through it TrueCountFast —, LeadGap, Happiness), so a source that is
// only described (Name, NumFrames, FPS, TargetClass, Resolution — what
// binding a query needs) costs nothing that grows with its length.
type Synthetic struct {
	cfg Config
	// timelineOnce guards the five fields below: generated once, from
	// RNG streams that depend only on (Seed, Name), so every frame is
	// bit-identical whenever — and from whichever reader — the first
	// touch comes.
	timelineOnce sync.Once
	events       []event
	// chunk index: chunks[c] lists events overlapping frames
	// [c*chunkLen, (c+1)*chunkLen).
	chunks  [][]int32
	counts  []uint16  // per-frame target-class events in view (no lead vehicle)
	leadGap []float32 // dashcam only
	happy   []float32 // street only
	bgSeed  uint64
	// staticBG is the background of a camera that does not drift, which
	// no frame index enters: rendered by the first Render (sources that
	// are only queried never pay for it), copied by every one.
	staticBG     []float64
	staticBGOnce sync.Once
	// bufs recycles the pixel buffers of released frames (*pixBuf).
	bufs sync.Pool
}

const chunkLen = 256

var _ Source = (*Synthetic)(nil)

// NewSynthetic validates cfg and returns the deterministic synthetic
// video it describes. Nothing proportional to cfg.Frames happens here.
func NewSynthetic(cfg Config) (*Synthetic, error) {
	cfg = cfg.withDefaults()
	if cfg.Frames <= 0 {
		return nil, fmt.Errorf("video: Frames must be positive, got %d", cfg.Frames)
	}
	if cfg.MeanPopulation < 0 || cfg.DistractorPopulation < 0 {
		return nil, fmt.Errorf("video: negative population")
	}
	s := &Synthetic{cfg: cfg}
	s.bgSeed = s.rootRNG().Split("background").Uint64()
	return s, nil
}

// rootRNG is the source's root stream, a function of (Seed, Name) alone.
func (s *Synthetic) rootRNG() *xrand.RNG {
	return xrand.New(s.cfg.Seed).Split("video/" + s.cfg.Name)
}

// timeline generates the event timeline and its derived tables on the
// first call and is a single atomic load on every later one.
func (s *Synthetic) timeline() { s.timelineOnce.Do(s.generate) }

// generate is timeline's one-time body.
func (s *Synthetic) generate() {
	root := s.rootRNG()
	s.generateEvents(root)
	s.buildIndex()
	s.buildCounts()
	switch s.cfg.Kind {
	case KindDashcam:
		s.buildLeadGap(root.Split("leadgap"))
	case KindStreet:
		s.buildHappiness(root.Split("happiness"))
	}
}

// generateEvents draws object passages as a non-homogeneous Poisson
// process: per-frame arrival rate λ(t) = population/sojourn × cycle(t) ×
// burst(t).
func (s *Synthetic) generateEvents(root *xrand.RNG) {
	cfg := s.cfg
	r := root.Split("events")
	sojourn := cfg.MeanSojournSec * float64(cfg.FPS)
	if cfg.Kind == KindCanal {
		sojourn *= 4 // boats cross slowly
	}

	// Precompute burst intervals.
	bursts := s.burstIntervals(root.Split("bursts"))

	addStream := func(class string, population float64, rr *xrand.RNG, sizeScale float64) {
		if population <= 0 {
			return
		}
		base := population / sojourn // arrivals per frame
		nextID := len(s.events) + 1
		for t := 0; t < cfg.Frames; t++ {
			// A burst overrides the daily cycle: rush-hour spikes are not
			// damped by the time-of-day baseline.
			rate := base * s.cycleFactor(t)
			if bf := burstFactor(bursts, t); bf > 1 {
				rate = base * bf
			}
			n := rr.Poisson(rate)
			for k := 0; k < n; k++ {
				dur := int(sojourn * math.Exp(0.4*rr.Norm()))
				if dur < cfg.FPS/2 {
					dur = cfg.FPS / 2
				}
				dir := 1.0
				if rr.Float64() < 0.5 {
					dir = -1
				}
				phase0 := 0.0
				if rr.Float64() < 0.35 {
					phase0 = 0.7 * rr.Float64()
				}
				s.events = append(s.events, event{
					id:     nextID,
					class:  class,
					t0:     t,
					dur:    dur,
					lane:   0.15 + 0.7*rr.Float64(),
					size:   (0.08 + 0.10*rr.Float64()) * sizeScale,
					shade:  shadeFor(class, rr),
					speed:  dir,
					phase0: phase0,
				})
				nextID++
			}
		}
	}
	addStream(cfg.Class, cfg.MeanPopulation, r.Split("target"), 1)
	distractor := ClassPerson
	if cfg.Class == ClassPerson {
		distractor = ClassCar
	}
	addStream(distractor, cfg.DistractorPopulation, r.Split("distractor"), 1)
	heavy := ClassBus
	if cfg.Class == ClassBus {
		heavy = ClassBoat
	}
	addStream(heavy, cfg.HeavyDistractorPopulation, r.Split("heavy"), 2.6)
}

// shadeFor draws a rendered intensity from the class's distinctive range
// — different object classes look different on camera, which is what lets
// any pixel-level proxy (CMDN or baseline classifier) tell a car from a
// pedestrian.
func shadeFor(class string, r *xrand.RNG) float64 {
	switch class {
	case ClassCar:
		return 0.68 + 0.27*r.Float64()
	case ClassBus:
		return 0.80 + 0.20*r.Float64()
	case ClassPerson:
		return 0.05 + 0.15*r.Float64()
	case ClassBoat:
		return 0.58 + 0.22*r.Float64()
	default:
		return 0.5 + 0.3*r.Float64()
	}
}

// burstInterval is a period of elevated arrivals.
type burstInterval struct {
	t0, t1 int
	factor float64
}

func (s *Synthetic) burstIntervals(r *xrand.RNG) []burstInterval {
	cfg := s.cfg
	if cfg.BurstRate <= 0 {
		return nil
	}
	hours := float64(cfg.Frames) / float64(cfg.FPS) / 3600
	n := r.Poisson(cfg.BurstRate * hours)
	if n == 0 {
		n = 1 // guarantee at least one interesting moment
	}
	out := make([]burstInterval, 0, n)
	// Bursts are rare moments, not regimes: cap each burst at a small
	// fraction of the video so scaled-down videos keep the paper-like
	// skew (a handful of standout moments over a long quiet baseline).
	maxDurSec := cfg.Frames / cfg.FPS / 15
	if maxDurSec < 10 {
		maxDurSec = 10
	}
	for i := 0; i < n; i++ {
		durSec := 20 + r.Intn(100)
		if durSec > maxDurSec {
			durSec = maxDurSec
		}
		dur := durSec * cfg.FPS
		// Place the burst so it fits inside the video (with headroom for
		// the object-sojourn ramp-up); a burst that starts on the final
		// frames never builds up any population.
		span := cfg.Frames - dur - 2*cfg.FPS
		start := 0
		if span > 1 {
			start = r.Intn(span)
		}
		out = append(out, burstInterval{
			t0:     start,
			t1:     start + dur,
			factor: 3 + 3*r.Float64(),
		})
	}
	return out
}

func burstFactor(bursts []burstInterval, t int) float64 {
	f := 1.0
	for _, b := range bursts {
		if t >= b.t0 && t < b.t1 {
			// Rush hours ramp up, peak and subside (half-sine profile);
			// a flat-rate burst would produce a long plateau of tied
			// counts with no meaningful Top-K inside it.
			phase := float64(t-b.t0) / float64(b.t1-b.t0)
			f *= 1 + (b.factor-1)*math.Sin(math.Pi*phase)
		}
	}
	return f
}

// cycleFactor is the slow daily-cycle modulation of arrival rates.
func (s *Synthetic) cycleFactor(t int) float64 {
	if !s.cfg.DailyCycle {
		return 1
	}
	// One "day" spans the whole video if the video is shorter than 24h.
	day := 24 * 3600 * s.cfg.FPS
	if s.cfg.Frames < day {
		day = s.cfg.Frames
	}
	phase := 2 * math.Pi * float64(t) / float64(day)
	return 0.35 + 0.65*(0.5+0.5*math.Sin(phase-math.Pi/2))
}

func (s *Synthetic) buildIndex() {
	nChunks := (s.cfg.Frames + chunkLen - 1) / chunkLen
	s.chunks = make([][]int32, nChunks)
	for i, e := range s.events {
		c0 := e.t0 / chunkLen
		c1 := (e.t0 + e.dur - 1) / chunkLen
		if c1 >= nChunks {
			c1 = nChunks - 1
		}
		for c := c0; c <= c1; c++ {
			s.chunks[c] = append(s.chunks[c], int32(i))
		}
	}
}

func (s *Synthetic) buildCounts() {
	s.counts = make([]uint16, s.cfg.Frames)
	for k := range s.events {
		e := &s.events[k]
		if e.class != s.cfg.Class {
			continue
		}
		end := min(e.t0+e.dur, s.cfg.Frames)
		for t := e.t0; t < end; t++ {
			if eventInView(e, t) && s.counts[t] < math.MaxUint16 {
				s.counts[t]++
			}
		}
	}
}

// eventInView reports whether the object's center is inside the frame at
// time t — the visibility criterion shared by Scene, the precomputed
// counts and the renderer's ground truth. An object that has barely
// entered (or nearly left) the view contributes almost no pixels, and no
// real detector counts it either.
func eventInView(e *event, t int) bool {
	x := eventX(e, t)
	cx := x + e.size/2
	return cx >= 0 && cx <= 1
}

// eventX returns the object's left edge at time t.
func eventX(e *event, t int) float64 {
	frac := e.phase0 + (1-e.phase0)*float64(t-e.t0)/float64(e.dur)
	x := frac*(1+2*e.size) - e.size
	if e.speed < 0 {
		x = 1 - frac*(1+2*e.size)
	}
	return x
}

// buildLeadGap simulates the distance to the leading vehicle as an
// Ornstein–Uhlenbeck process around 25 m with occasional close-approach
// excursions — the "dangerous tailgating moments" of the fleet-management
// use case.
func (s *Synthetic) buildLeadGap(r *xrand.RNG) {
	n := s.cfg.Frames
	s.leadGap = make([]float32, n)
	inEvent := spanMask(r, n, 2e-4, s.cfg.FPS*3, s.cfg.FPS*13)
	gap := 25.0
	const (
		mean  = 25.0
		theta = 0.04 // mean-reversion per frame
		vol   = 0.5  // metres per sqrt(frame)
	)
	for t := 0; t < n; t++ {
		// Cruise target wanders slowly (traffic flow changes); during a
		// close-approach event it drops to tailgating range.
		target := mean + 12*math.Sin(float64(t)*0.0007+1)
		if inEvent[t] {
			target = 3 + 4*r.Float64()
		}
		gap += theta*(target-gap) + vol*r.Norm()
		if gap < 1.5 {
			gap = 1.5
		}
		if gap > 60 {
			gap = 60
		}
		s.leadGap[t] = float32(gap)
	}
}

// spanMask marks frames covered by randomly placed event spans. Events
// start per-frame with probability rate and last between minDur and maxDur
// frames; at least one event is always placed so every dataset has Top-K
// targets.
func spanMask(r *xrand.RNG, n int, rate float64, minDur, maxDur int) []bool {
	mask := make([]bool, n)
	count := r.Poisson(rate * float64(n))
	if count == 0 {
		count = 1
	}
	for e := 0; e < count; e++ {
		start := r.Intn(n)
		dur := minDur + r.Intn(max(maxDur-minDur, 1))
		for t := start; t < min(start+dur, n); t++ {
			mask[t] = true
		}
	}
	return mask
}

// buildHappiness simulates a [0,100] crowd-sentiment signal as a bounded
// random walk with festive spikes (the thumbnail-generation use case).
func (s *Synthetic) buildHappiness(r *xrand.RNG) {
	n := s.cfg.Frames
	s.happy = make([]float32, n)
	inSpike := spanMask(r, n, 1.5e-4, s.cfg.FPS*5, s.cfg.FPS*25)
	h := 50.0
	for t := 0; t < n; t++ {
		target := 45 + 10*math.Sin(float64(t)*0.0004)
		if inSpike[t] {
			target = 92
		}
		h += 0.03*(target-h) + 0.6*r.Norm()
		h = math.Max(0, math.Min(100, h))
		s.happy[t] = float32(h)
	}
}

// Name implements Source.
func (s *Synthetic) Name() string { return s.cfg.Name }

// NumFrames implements Source.
func (s *Synthetic) NumFrames() int { return s.cfg.Frames }

// FPS implements Source.
func (s *Synthetic) FPS() int { return s.cfg.FPS }

// TargetClass implements Source.
func (s *Synthetic) TargetClass() string { return s.cfg.Class }

// Resolution implements Source.
func (s *Synthetic) Resolution() (int, int) { return s.cfg.W, s.cfg.H }

// TrueCountFast returns the ground-truth target-class count of frame i,
// CountObjects(i, TargetClass()); detectors use Scene, the test suite and
// workload analysis use this.
func (s *Synthetic) TrueCountFast(i int) int {
	return s.CountObjects(i, s.cfg.Class)
}

// CountObjects implements Source. The target class is read from the
// per-frame count table (scanned when the entry is saturated), any other
// class from the chunk index; a dashcam's lead vehicle counts as the car
// appendObjects lists it as.
func (s *Synthetic) CountObjects(i int, class string) int {
	s.checkFrame(i)
	s.timeline()
	n := 0
	if c := s.counts[i]; class == s.cfg.Class && c < math.MaxUint16 {
		n = int(c)
	} else {
		for _, ei := range s.chunks[i/chunkLen] {
			e := &s.events[ei]
			if e.class == class && i >= e.t0 && i < e.t0+e.dur && eventInView(e, i) {
				n++
			}
		}
	}
	if s.leadGap != nil && class == leadClass {
		n++
	}
	return n
}

// Scene implements Source. The returned Objects slice is freshly
// allocated and the caller's to keep.
func (s *Synthetic) Scene(i int) Scene {
	sc := Scene{Objects: s.appendObjects(nil, i)}
	if s.leadGap != nil {
		sc.LeadGap = float64(s.leadGap[i])
	}
	if s.happy != nil {
		sc.Happiness = float64(s.happy[i])
	}
	return sc
}

// appendObjects appends the objects visible in frame i to dst, in the
// order Scene lists them, and returns the extended slice — the scene walk
// itself, for Render to run into recycled scratch.
func (s *Synthetic) appendObjects(dst []Object, i int) []Object {
	s.checkFrame(i)
	s.timeline()
	for _, ei := range s.chunks[i/chunkLen] {
		e := &s.events[ei]
		if i < e.t0 || i >= e.t0+e.dur {
			continue
		}
		if !eventInView(e, i) {
			continue
		}
		x := eventX(e, i)
		dst = append(dst, Object{
			ID:    e.id,
			Class: e.class,
			X:     x,
			Y:     e.lane,
			W:     e.size,
			H:     e.size * 0.7,
			Shade: e.shade,
		})
	}
	if s.leadGap != nil {
		// The leading vehicle is itself an object whose apparent size grows
		// as the gap shrinks; this is the pixel signal the CMDN learns.
		size := 0.5 * 6 / math.Max(3, float64(s.leadGap[i]))
		dst = append(dst, Object{
			ID:    0,
			Class: leadClass,
			X:     0.5 - size/2,
			Y:     0.55 - size*0.35,
			W:     size,
			H:     size * 0.7,
			Shade: 0.8,
		})
	}
	return dst
}

// leadClass is the class of a dashcam's lead vehicle.
const leadClass = ClassCar

// checkFrame panics unless i is a frame of the video.
func (s *Synthetic) checkFrame(i int) {
	if i < 0 || i >= s.cfg.Frames {
		panic(fmt.Sprintf("video: frame %d out of range [0,%d)", i, s.cfg.Frames))
	}
}

// LeadGap returns the dashcam lead-vehicle gap for frame i (metres) or 0
// for non-dashcam sources.
func (s *Synthetic) LeadGap(i int) float64 {
	s.timeline()
	if s.leadGap == nil {
		return 0
	}
	return float64(s.leadGap[i])
}

// Happiness returns the sentiment signal for frame i, or 0 for sources
// without one.
func (s *Synthetic) Happiness(i int) float64 {
	s.timeline()
	if s.happy == nil {
		return 0
	}
	return float64(s.happy[i])
}
