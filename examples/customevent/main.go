// Customevent demonstrates the framework's generality (paper §4:
// "this event model may also be adjusted to detect U-turns, speeding
// and any other event"): the same pipeline and learner retrieve
// U-turns with the built-in model, and then a *user-defined* event
// model — a tailgating detector written in this file — is plugged in
// without touching the library.
//
//	go run ./examples/customevent
package main

import (
	"fmt"
	"log"
	"math"

	"milvideo/internal/core"
	"milvideo/internal/event"
	"milvideo/internal/mil"
	"milvideo/internal/retrieval"
	"milvideo/internal/sim"
	"milvideo/internal/window"
)

// TailgateModel flags vehicles following their neighbour too closely
// at speed: features are the inverse gap scaled by speed and the raw
// inverse gap. It implements event.Model purely in client code.
type TailgateModel struct {
	// MinGap is the gap (px) below which following is dangerous.
	MinGap float64
}

// Name implements event.Model.
func (TailgateModel) Name() string { return "tailgate" }

// Dim implements event.Model.
func (TailgateModel) Dim() int { return 2 }

// Vector implements event.Model.
func (m TailgateModel) Vector(s event.Sample, rate int) []float64 {
	gap := s.MinDist
	if math.IsInf(gap, 1) {
		return []float64{0, 0}
	}
	min := m.MinGap
	if min <= 0 {
		min = 1
	}
	if gap < min {
		gap = min
	}
	inv := 1 / gap
	return []float64{inv * s.Speed(rate), inv}
}

func main() {
	scene, err := sim.Intersection(sim.DefaultIntersection())
	if err != nil {
		log.Fatal(err)
	}
	clip, err := core.ProcessSceneStream(scene, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Query 1: U-turns with the built-in model. The oracle answers
	// for U-turn incidents only.
	query(clip, event.UTurnModel{}, func(t sim.IncidentType) bool { return t == sim.UTurn })

	// Query 2: speeding.
	query(clip, event.SpeedingModel{RefSpeed: 2.5}, func(t sim.IncidentType) bool { return t == sim.Speeding })

	// Query 3: the custom tailgating model. There is no ground-truth
	// "tailgating" incident type, so rank once with the heuristic and
	// show the top windows — the exploratory, pre-feedback use.
	vss, err := window.Extract(clip.Tracks, TailgateModel{MinGap: 4}, clip.Video.Len(), window.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncustom tailgate model — top 5 windows by initial heuristic:")
	type scored struct {
		idx   int
		score float64
	}
	var ranked []scored
	for _, vs := range vss {
		ranked = append(ranked, scored{vs.Index, retrieval.HeuristicScore(vs)})
	}
	for i := 0; i < len(ranked); i++ {
		for j := i + 1; j < len(ranked); j++ {
			if ranked[j].score > ranked[i].score {
				ranked[i], ranked[j] = ranked[j], ranked[i]
			}
		}
	}
	for _, r := range ranked[:5] {
		vs := vss[r.idx]
		fmt.Printf("  VS %d frames %d-%d score %.3f (%d vehicles)\n",
			vs.Index, vs.StartFrame, vs.EndFrame, r.score, len(vs.TSs))
	}
}

// query runs a five-round MIL session for one event type.
func query(clip *core.Clip, model event.Model, pred func(sim.IncidentType) bool) {
	vss, err := window.Extract(clip.Tracks, model, clip.Video.Len(), window.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	oracle := retrieval.SceneOracle{Scene: clip.Scene, Pred: pred, MinOverlap: 5}
	sess := &retrieval.Session{DB: vss, Oracle: oracle, TopK: 10}
	res, err := sess.Run(retrieval.MILEngine{Opt: mil.DefaultOptions()}, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %q: %d relevant VSs, accuracy", model.Name(), sess.GroundTruthRelevant())
	for _, a := range res.Accuracies() {
		fmt.Printf(" %.0f%%", a*100)
	}
	fmt.Println()
}
