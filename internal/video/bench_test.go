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

func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = benchSource(b, 100000)
	}
}

func BenchmarkRender(b *testing.B) {
	s := benchSource(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Render(i % 10000).Release()
	}
}

func BenchmarkScene(b *testing.B) {
	s := benchSource(b, 10000)
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
