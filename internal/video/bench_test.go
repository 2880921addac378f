package video

import "testing"

func benchSource(b *testing.B, frames int) *Synthetic {
	b.Helper()
	s, err := NewSynthetic(Config{
		Name: "bench", Kind: KindTraffic, Class: ClassCar,
		Frames: frames, FPS: 30, Seed: 1, MeanPopulation: 4, BurstRate: 2,
		DistractorPopulation: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkNewSynthetic is construction alone — validation and seed
// derivation, what binding a query pays: independent of the frame count.
func BenchmarkNewSynthetic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = benchSource(b, 100000)
	}
}

// BenchmarkTimeline is construction plus the first frame read, which
// generates the 100,000-frame event timeline and its tables.
func BenchmarkTimeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = benchSource(b, 100000).TrueCountFast(0)
	}
}

func BenchmarkRender(b *testing.B) {
	s := benchSource(b, 10000)
	s.timeline() // the first frame read generates it; not what is measured
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Render(i % 10000).Release()
	}
}

func BenchmarkScene(b *testing.B) {
	s := benchSource(b, 10000)
	s.timeline()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Scene(i % 10000)
	}
}

func BenchmarkMSE(b *testing.B) {
	s := benchSource(b, 100)
	f, g := s.Render(0), s.Render(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.MSE(g); err != nil {
			b.Fatal(err)
		}
	}
}
