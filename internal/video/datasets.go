package video

import (
	"fmt"
	"slices"
)

// DatasetSpec describes one of the paper's evaluation videos (Table 7)
// together with the synthetic configuration that stands in for it.
type DatasetSpec struct {
	// Name matches the paper's dataset name.
	Name string
	// PaperFrames and PaperHours are the original corpus sizes, recorded
	// for EXPERIMENTS.md; the synthetic stand-in scales them down by
	// DefaultScale (overridable).
	PaperFrames int
	PaperHours  float64
	// Config is the full-scale synthetic configuration (Frames set to
	// PaperFrames); Build rescales it.
	Config Config
}

// DefaultScale shrinks paper-sized frame counts to something a single CPU
// core processes in seconds. Experiments can override via Build's frames
// argument.
const DefaultScale = 1.0 / 400

// datasets is the catalog: the five object-counting videos, then the two
// dashcam videos of Table 7, in the paper's order. It is never written;
// the exported accessors hand out copies.
var datasets = [...]DatasetSpec{
	{
		Name: "Archie", PaperFrames: 2130000, PaperHours: 19.7,
		Config: Config{
			Name: "Archie", Kind: KindTraffic, Class: ClassCar, FPS: 30,
			Seed: 0xA2C41E, MeanPopulation: 3.5, MeanSojournSec: 3,
			BurstRate: 1.2, DailyCycle: true, DistractorPopulation: 1,
			HeavyDistractorPopulation: 0.6,
		},
	},
	{
		Name: "Daxi-old-street", PaperFrames: 8640000, PaperHours: 80,
		Config: Config{
			Name: "Daxi-old-street", Kind: KindStreet, Class: ClassPerson, FPS: 30,
			Seed: 0xDA81, MeanPopulation: 5, MeanSojournSec: 6,
			BurstRate: 0.9, DailyCycle: true, CameraDrift: 0.02,
			DistractorPopulation: 0.5, HeavyDistractorPopulation: 0.4,
		},
	},
	{
		Name: "Grand-Canal", PaperFrames: 25100000, PaperHours: 116.2,
		Config: Config{
			Name: "Grand-Canal", Kind: KindCanal, Class: ClassBoat, FPS: 60,
			Seed: 0x6CA7A1, MeanPopulation: 2, MeanSojournSec: 5,
			BurstRate: 0.6, DailyCycle: true, HeavyDistractorPopulation: 0.3,
		},
	},
	{
		Name: "Irish-Center", PaperFrames: 32401000, PaperHours: 300,
		Config: Config{
			Name: "Irish-Center", Kind: KindTraffic, Class: ClassCar, FPS: 30,
			Seed: 0x141583, MeanPopulation: 4, MeanSojournSec: 2.5,
			BurstRate: 1.5, DailyCycle: true, CameraDrift: 0.015,
			DistractorPopulation: 1.5, HeavyDistractorPopulation: 0.7,
		},
	},
	{
		Name: "Taipei-bus", PaperFrames: 32488000, PaperHours: 300.8,
		Config: Config{
			Name: "Taipei-bus", Kind: KindTraffic, Class: ClassCar, FPS: 30,
			Seed: 0x7A1BE1, MeanPopulation: 4.5, MeanSojournSec: 3,
			BurstRate: 1.8, DailyCycle: true, DistractorPopulation: 2,
			HeavyDistractorPopulation: 0.8,
		},
	},
	{
		Name: "Dashcam-California", PaperFrames: 324000, PaperHours: 3,
		Config: Config{
			Name: "Dashcam-California", Kind: KindDashcam, Class: ClassCar, FPS: 30,
			Seed: 0xDC0CA1, MeanPopulation: 2, MeanSojournSec: 1.5,
			CameraDrift: 0.25, NoiseAmp: 0.012,
		},
	},
	{
		Name: "Dashcam-Greenport", PaperFrames: 350000, PaperHours: 3.2,
		Config: Config{
			Name: "Dashcam-Greenport", Kind: KindDashcam, Class: ClassCar, FPS: 30,
			Seed: 0xD69EE0, MeanPopulation: 1.5, MeanSojournSec: 1.5,
			CameraDrift: 0.2, NoiseAmp: 0.012,
		},
	},
}

// Datasets returns the specs of the five object-counting videos and two
// dashcam videos of Table 7, in the paper's order, in a slice the
// caller owns.
func Datasets() []DatasetSpec { return slices.Clone(datasets[:]) }

// CountingDatasets returns the five object-counting specs (Fig. 4–7).
func CountingDatasets() []DatasetSpec { return slices.Clone(datasets[:5]) }

// DashcamDatasets returns the two dashcam specs (Fig. 9).
func DashcamDatasets() []DatasetSpec { return slices.Clone(datasets[5:]) }

// DatasetByName looks a spec up by its paper name, without copying the
// catalog.
func DatasetByName(name string) (DatasetSpec, error) {
	for i := range datasets {
		if datasets[i].Name == name {
			return datasets[i], nil
		}
	}
	return DatasetSpec{}, fmt.Errorf("video: unknown dataset %q", name)
}

// Build instantiates the spec's synthetic source with the given frame
// count; frames <= 0 uses PaperFrames × DefaultScale.
func (d DatasetSpec) Build(frames int) (*Synthetic, error) {
	cfg := d.Config
	if frames <= 0 {
		frames = int(float64(d.PaperFrames) * DefaultScale)
	}
	cfg.Frames = frames
	return NewSynthetic(cfg)
}
