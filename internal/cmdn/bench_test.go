package cmdn

import (
	"testing"

	"github.com/everest-project/everest/internal/simclock"
)

func BenchmarkExtractFeatures(b *testing.B) {
	src := trafficSource(b, 100)
	f := src.Render(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExtractFeatures(f)
	}
}

func BenchmarkProxyPredict(b *testing.B) {
	src := trafficSource(b, 2000)
	train := makeSamples(src, sampleEvery(2000, 7))
	holdout := makeSamples(src, offsetEvery(2000, 13, 3))
	proxy, _, err := Train(train, holdout, Config{Grid: []Hyper{{G: 8, H: 30}}, Epochs: 5, Seed: 1}, nil, simclock.Default())
	if err != nil {
		b.Fatal(err)
	}
	f := src.Render(123)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = proxy.PredictFrame(f)
	}
}

func BenchmarkTrainGridPoint(b *testing.B) {
	src := trafficSource(b, 2000)
	train := makeSamples(src, sampleEvery(2000, 7))
	holdout := makeSamples(src, offsetEvery(2000, 13, 3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Train(train, holdout, Config{Grid: []Hyper{{G: 5, H: 20}}, Epochs: 5, Seed: 1}, nil, simclock.Default()); err != nil {
			b.Fatal(err)
		}
	}
}
