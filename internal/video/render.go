package video

import "math"

// Render implements Source: it rasterizes frame i deterministically from
// the scene graph — a textured background with optional camera drift,
// filled object rectangles, a subtle global illumination cycle and
// per-pixel sensor noise. The renderer is intentionally simple; what
// matters to the pipeline is that (a) pixel content correlates with the
// ground-truth score (so the CMDN has signal to learn), (b) consecutive
// frames are similar (so the difference detector has duplicates to
// discard), and (c) rendering is cheap and allocation-free when callers
// release their frames: the pixels land in a buffer recycled through
// Frame.Release, every pixel of it is overwritten here, and the scene's
// object list is walked into scratch that travels with that buffer.
func (s *Synthetic) Render(i int) Frame {
	buf, _ := s.bufs.Get().(*pixBuf)
	if buf == nil {
		buf = &pixBuf{pix: make([]float64, s.cfg.W*s.cfg.H), pool: &s.bufs}
	}
	return s.renderInto(buf, i)
}

// renderInto rasterizes frame i into buf, a buffer of this source's.
func (s *Synthetic) renderInto(buf *pixBuf, i int) Frame {
	w, h := s.cfg.W, s.cfg.H
	pix := buf.pix

	// Background: a fixed camera's is the same in every frame and is
	// rendered once; a moving camera's shifts with the frame.
	if s.cfg.CameraDrift == 0 {
		s.staticBGOnce.Do(func() {
			s.staticBG = make([]float64, w*h)
			s.background(s.staticBG, 0)
		})
		copy(pix, s.staticBG)
	} else {
		s.background(pix, s.cfg.CameraDrift*float64(i)/float64(s.cfg.FPS)*float64(w))
	}

	// Illumination: a slow ambient-light cycle (clouds, sun angle) plus a
	// faint flicker. Outdoor footage's global brightness varies far more
	// with lighting than with scene content, which is exactly why naive
	// global-intensity proxies fail on counting queries.
	cyc := 2 * math.Pi * float64(i) / (40 * 60 * float64(s.cfg.FPS))
	illum := 1 + 0.12*math.Sin(cyc+float64(s.bgSeed%7)) + 0.01*math.Sin(float64(i)*0.002)

	// Objects: filled rectangles at their normalized positions.
	buf.objs = s.appendObjects(buf.objs[:0], i)
	for _, o := range buf.objs {
		x0 := int(o.X * float64(w))
		y0 := int(o.Y * float64(h))
		x1 := int((o.X + o.W) * float64(w))
		y1 := int((o.Y + o.H) * float64(h))
		// Never rasterize a visible object to zero pixels: one extra car
		// must always change the frame (it does at 1080p).
		if x1 == x0 {
			x1++
		}
		if y1 == y0 {
			y1++
		}
		x0 = max(x0, 0)
		y0 = max(y0, 0)
		x1 = min(x1, w)
		y1 = min(y1, h)
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				// Layered blend rather than overwrite: a second object on
				// the same pixels still changes them (windshields, shadows
				// and partial occlusion keep stacked objects distinguishable
				// at full resolution; the blend preserves that countable
				// signal at ours).
				pix[y*w+x] += 0.65 * (o.Shade - pix[y*w+x])
			}
		}
	}

	// Sensor noise: deterministic per (frame, pixel).
	amp := s.cfg.NoiseAmp
	base := s.bgSeed ^ uint64(i)*0x9e3779b97f4a7c15
	for p := range pix {
		pix[p] = clamp01(pix[p]*illum + amp*(hash01(base+uint64(p))-0.5))
	}
	return Frame{Index: i, W: w, H: h, Pix: pix, buf: buf}
}

// background fills pix with the smooth per-dataset texture, shifted
// horizontally by driftPx pixels of camera drift.
func (s *Synthetic) background(pix []float64, driftPx float64) {
	w, h := s.cfg.W, s.cfg.H
	for y := 0; y < h; y++ {
		fy := float64(y) / float64(h)
		rowBase := 0.28 + 0.12*fy
		for x := 0; x < w; x++ {
			fx := float64(x) + driftPx
			tex := 0.06*math.Sin(fx*0.55) + 0.04*math.Sin(fx*0.17+fy*9)
			pix[y*w+x] = rowBase + tex
		}
	}
}

// clamp01 is max(0, min(1, v)) bit for bit on every v but a NaN, which
// it passes through where the builtins clear its sign; −0 becomes +0 as
// there. Two compares instead of the builtins' NaN and zero-sign
// handling.
func clamp01(v float64) float64 {
	if v >= 1 {
		v = 1
	}
	if v <= 0 {
		v = 0
	}
	return v
}

// hash01 maps a 64-bit value to [0,1) via splitmix64 finalization. The
// top 53 bits convert exactly as a signed integer, which is one
// instruction; an unsigned conversion is a branch.
func hash01(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(int64(x>>11)) / (1 << 53)
}
