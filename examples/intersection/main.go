// Intersection reproduces the paper's second experiment (Figure 9) —
// multi-vehicle collisions at a crossing — and then demonstrates the
// MIL property the paper builds on: from bag-level ("this video
// sequence contains an accident") feedback alone, the learner
// recovers which *individual vehicle trajectories* were involved.
//
//	go run ./examples/intersection
package main

import (
	"fmt"
	"log"

	"milvideo/internal/core"
	"milvideo/internal/mil"
	"milvideo/internal/retrieval"
	"milvideo/internal/rf"
	"milvideo/internal/sim"
	"milvideo/internal/window"
)

func main() {
	scene, err := sim.Intersection(sim.DefaultIntersection())
	if err != nil {
		log.Fatal(err)
	}
	clip, err := core.ProcessSceneStream(scene, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clip 2 (intersection): %d frames, %d VSs, %d TSs (paper: 168 TSs)\n",
		len(scene.Frames), len(clip.VSs), window.CountTS(clip.VSs))

	oracle, err := clip.AccidentOracle()
	if err != nil {
		log.Fatal(err)
	}
	sess := clip.Session(oracle, 20)
	results, err := sess.Compare([]retrieval.Engine{
		retrieval.MILEngine{Opt: mil.DefaultOptions()},
		retrieval.WeightedEngine{Norm: rf.NormPercentage},
	}, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-26s %8s %8s %8s %8s %8s\n", "method", "Initial", "First", "Second", "Third", "Fourth")
	for _, name := range []string{"MIL-OCSVM", "Weighted-RF(percentage)"} {
		fmt.Printf("%-26s", name)
		for _, a := range results[name].Accuracies() {
			fmt.Printf(" %7.0f%%", a*100)
		}
		fmt.Println()
	}
	fmt.Println("\nexpected shape (paper Fig. 9): weighted RF degrades right after")
	fmt.Println("the initial iteration; the proposed framework keeps improving.")

	// Instance-level recovery: train a MIL learner from the final
	// session labels and ask it which trajectories inside the labeled
	// relevant VSs it considers relevant.
	labels := results["MIL-OCSVM"].Labels
	var bags []mil.Bag
	byIndex := make(map[int]window.VS)
	for _, vs := range clip.VSs {
		byIndex[vs.Index] = vs
		b := mil.Bag{ID: vs.Index, Label: labels[vs.Index]}
		for _, ts := range vs.TSs {
			b.Instances = append(b.Instances, ts.Flat())
			b.Keys = append(b.Keys, ts.TrackID)
		}
		bags = append(bags, b)
	}
	learner, err := mil.Train(bags, mil.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ninstance-level recovery inside relevant video sequences:")
	shown := 0
	for _, b := range bags {
		if b.Label != mil.Positive || len(b.Instances) < 2 || shown >= 5 {
			continue
		}
		flags, err := learner.InstanceLabels(b)
		if err != nil {
			log.Fatal(err)
		}
		vs := byIndex[b.ID]
		fmt.Printf("  VS %d (frames %d-%d):", b.ID, vs.StartFrame, vs.EndFrame)
		for i, key := range b.Keys {
			mark := "normal"
			if flags[i] {
				mark = "INVOLVED"
			}
			fmt.Printf(" track%d=%s", key, mark)
		}
		fmt.Println()
		shown++
	}
}
