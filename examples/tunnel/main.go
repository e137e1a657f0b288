// Tunnel reproduces the paper's first experiment (Figure 8) end to
// end at paper scale: the 2504-frame tunnel clip, five rounds of
// top-20 relevance feedback, the proposed MIL + One-class SVM
// framework against the weighted-RF baseline — plus the Rocchio
// comparator for context.
//
//	go run ./examples/tunnel
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
	scene, err := sim.Tunnel(sim.DefaultTunnel())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clip 1 (tunnel): %d frames, %d incidents\n", len(scene.Frames), len(scene.Incidents))

	clip, err := core.ProcessSceneStream(scene, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	q, err := clip.TrackingQuality(12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vision substrate: %d tracks, %s\n", len(clip.Tracks), q)
	fmt.Printf("database: %d VSs, %d TSs (paper: 109 TSs)\n",
		len(clip.VSs), window.CountTS(clip.VSs))

	oracle, err := clip.AccidentOracle()
	if err != nil {
		log.Fatal(err)
	}
	sess := clip.Session(oracle, 20)
	fmt.Printf("ground truth: %d relevant VSs\n\n", sess.GroundTruthRelevant())

	results, err := sess.Compare([]retrieval.Engine{
		retrieval.MILEngine{Opt: mil.DefaultOptions()},
		retrieval.WeightedEngine{Norm: rf.NormPercentage},
		retrieval.RocchioEngine{},
	}, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-26s %8s %8s %8s %8s %8s\n", "method", "Initial", "First", "Second", "Third", "Fourth")
	for _, name := range []string{"MIL-OCSVM", "Weighted-RF(percentage)", "Rocchio"} {
		fmt.Printf("%-26s", name)
		for _, a := range results[name].Accuracies() {
			fmt.Printf(" %7.0f%%", a*100)
		}
		fmt.Println()
	}
	fmt.Println("\nexpected shape (paper Fig. 8): both methods start equal;")
	fmt.Println("the proposed framework climbs steadily while weighted RF stalls.")
}
