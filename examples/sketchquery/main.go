// Sketchquery demonstrates the paper's §7 future-work query types,
// implemented in internal/query: the user *sketches* a crash-like
// trajectory (drive fast, veer, dead stop); the sketch becomes an
// example query that ranks the tunnel database before any feedback
// exists; and query.WithFeedback hands over to the MIL learner once
// the user confirms results — a full custom entry point into the
// interactive loop.
//
//	go run ./examples/sketchquery
package main

import (
	"fmt"
	"log"

	"milvideo/internal/core"
	"milvideo/internal/event"
	"milvideo/internal/geom"
	"milvideo/internal/mil"
	"milvideo/internal/query"
	"milvideo/internal/retrieval"
	"milvideo/internal/sim"
	"milvideo/internal/window"
)

func main() {
	scene, err := sim.Tunnel(sim.DefaultTunnel())
	if err != nil {
		log.Fatal(err)
	}
	clip, err := core.ProcessSceneStream(scene, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// The user's sketch: cruise fast to the right, veer toward the
	// wall, stop dead. Each segment spans 5 frames.
	sketch := query.Sketch{
		Points: []geom.Point{
			geom.Pt(20, 120), geom.Pt(43, 120), geom.Pt(66, 120), // ~4.6 px/frame
			geom.Pt(80, 100), // veer up-right
			geom.Pt(82, 96),  // impact: nearly stationary
			geom.Pt(82, 96),
		},
		FramesPerSegment: 5,
	}
	example, err := query.BySketch(sketch, event.AccidentModel{}, window.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sketch compiled to a %d-point example query (σ=%.2f)\n",
		len(example.Example), query.AutoSigma(example.Example))

	oracle, err := clip.AccidentOracle()
	if err != nil {
		log.Fatal(err)
	}
	sess := clip.Session(oracle, 20)

	// Pure sketch query (no feedback) vs the default heuristic.
	for _, eng := range []retrieval.Engine{
		example,
		retrieval.MILEngine{Opt: mil.DefaultOptions()}, // heuristic at round 0
	} {
		res, err := sess.Run(eng, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("initial round with %-24s accuracy %.0f%%\n",
			eng.Name()+":", res.Rounds[0].Accuracy*100)
	}

	// The combined workflow: sketch first, then MIL refinement.
	combined := query.WithFeedback{
		Initial: example,
		Learner: retrieval.MILEngine{Opt: mil.DefaultOptions()},
	}
	res, err := sess.Run(combined, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s over five rounds:", res.Engine)
	for _, a := range res.Accuracies() {
		fmt.Printf(" %.0f%%", a*100)
	}
	fmt.Println()
}
