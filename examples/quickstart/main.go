// Quickstart: simulate a short tunnel clip, run the full pipeline
// (render → segment → track → event features → windows), then let the
// simulated user drive three rounds of MIL + One-class SVM relevance
// feedback for an accident query.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"milvideo/internal/core"
	"milvideo/internal/mil"
	"milvideo/internal/retrieval"
	"milvideo/internal/sim"
)

func main() {
	// 1. A small synthetic surveillance clip with two wall crashes
	// and a sudden stop among normal traffic.
	scene, err := sim.Tunnel(sim.TunnelConfig{
		Frames: 700, Seed: 42, SpawnEvery: 90,
		WallCrash: 2, SuddenStop: 1, FPS: 25,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d frames with %d vehicles and %d incidents\n",
		len(scene.Frames), scene.VehicleCount(), len(scene.Incidents))
	for _, inc := range scene.Incidents {
		fmt.Println("  ", inc)
	}

	// 2. The vision pipeline runs on rendered pixels only.
	clip, err := core.ProcessSceneStream(scene, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline: %d tracks → %d video sequences (bags)\n",
		len(clip.Tracks), len(clip.VSs))

	// 3. Interactive retrieval: the oracle plays the user labeling
	// the top-10 of each round.
	oracle, err := clip.AccidentOracle()
	if err != nil {
		log.Fatal(err)
	}
	sess := clip.Session(oracle, 10)
	res, err := sess.Run(retrieval.MILEngine{Opt: mil.DefaultOptions()}, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d of %d video sequences contain accidents\n",
		sess.GroundTruthRelevant(), len(clip.VSs))
	for i, acc := range res.Accuracies() {
		fmt.Printf("round %d: top-10 accuracy %.0f%%\n", i, acc*100)
	}
}
