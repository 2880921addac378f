// Probabilistic skyline (the paper's §5 future-work direction): find the
// frames that are not dominated on BOTH criteria — car count and
// pedestrian count — with quantified membership probability, directly
// from the CMDN's uncertain relation and without any oracle scan.
//
// A city analyst reads the result as "the moments that were extreme in
// some direction": car-heavy, pedestrian-heavy, or both.
//
//	go run ./examples/skyline
package main

import (
	"fmt"
	"log"

	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/skyline"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

func main() {
	src, err := video.NewSynthetic(video.Config{
		Name: "skyline-junction", Kind: video.KindTraffic, Class: video.ClassCar,
		Frames: 9000, FPS: 30, Seed: 21,
		MeanPopulation: 3, BurstRate: 6, DistractorPopulation: 2.5,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One Phase 1 per criterion: each trains a CMDN for its own UDF.
	opts := func(seed uint64) phase1.Options {
		return phase1.Options{
			Proxy: cmdn.Config{Grid: []cmdn.Hyper{{G: 5, H: 30}}, Epochs: 30},
			Cost:  simclock.Default(),
			Seed:  seed,
		}
	}
	qopt := uncertain.DefaultCountingOptions()
	relationOf := func(class string, seed uint64) uncertain.Relation {
		art, err := engine.Ingest(src, vision.CountUDF{Class: class}, opts(seed), simclock.NewClock())
		if err != nil {
			log.Fatal(err)
		}
		rel, err := art.FrameRelation(qopt, nil)
		if err != nil {
			log.Fatal(err)
		}
		return rel
	}
	carRel := relationOf(video.ClassCar, 1)
	peopleRel := relationOf(video.ClassPerson, 2)

	// Assemble the two-dimensional uncertain relation over frames both
	// pipelines retained; thin it to every 10th frame to keep the O(n²)
	// skyline operator snappy for the demo.
	carDist := make(map[int]uncertain.Dist, len(carRel))
	for _, x := range carRel {
		carDist[x.ID] = x.Dist
	}
	var rel skyline.Relation
	for i, x := range peopleRel {
		if i%10 != 0 {
			continue
		}
		cd, ok := carDist[x.ID]
		if !ok {
			continue
		}
		rel = append(rel, skyline.Tuple{ID: x.ID, Dims: []uncertain.Dist{cd, x.Dist}})
	}

	res, err := skyline.Query(rel, 0.25)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("probabilistic skyline over %d frames (membership ≥ 0.25): %d members\n\n",
		len(rel), len(res))
	fmt.Printf("%-8s %-10s %-14s %-10s %-10s\n", "frame", "time", "Pr(skyline)", "cars", "people")
	limit := min(12, len(res))
	for _, r := range res[:limit] {
		sc := src.Scene(r.ID)
		fmt.Printf("%-8d t=%6.1fs  %12.3f   %-10d %-10d\n",
			r.ID, float64(r.ID)/float64(src.FPS()), r.Probability,
			sc.CountClass(video.ClassCar), sc.CountClass(video.ClassPerson))
	}
	if len(res) > limit {
		fmt.Printf("... and %d more\n", len(res)-limit)
	}
}
