// Command simgen generates a synthetic surveillance clip, runs the
// full vision pipeline over its rendered frames, and stores the
// processed result (video sequences, trajectory features, ground
// truth) in a videodb catalog file for cmd/milquery and downstream
// analysis.
//
// Usage:
//
//	simgen -scenario tunnel -out db.gob
//	simgen -scenario intersection -frames 800 -seed 7 -out db.gob
//
// When -out names an existing catalog, the clip is added to it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"milvideo/internal/core"
	"milvideo/internal/sim"
	"milvideo/internal/videodb"
)

func main() {
	scenario := flag.String("scenario", "tunnel", "scenario: tunnel or intersection")
	frames := flag.Int("frames", 0, "clip length in frames (0 = paper default)")
	seed := flag.Int64("seed", 0, "simulation seed (0 = paper default)")
	name := flag.String("name", "", "clip name in the catalog (default: scenario name)")
	out := flag.String("out", "videodb.gob", "catalog file to create or extend")
	flag.Parse()

	if err := run(*scenario, *frames, *seed, *name, *out); err != nil {
		fmt.Fprintln(os.Stderr, "simgen:", err)
		os.Exit(1)
	}
}

func run(scenario string, frames int, seed int64, name, out string) error {
	var scene *sim.Scene
	var err error
	switch scenario {
	case "tunnel":
		cfg := sim.DefaultTunnel()
		if frames > 0 {
			cfg.Frames = frames
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		scene, err = sim.Tunnel(cfg)
	case "intersection":
		cfg := sim.DefaultIntersection()
		if frames > 0 {
			cfg.Frames = frames
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		scene, err = sim.Intersection(cfg)
	default:
		return fmt.Errorf("unknown scenario %q (tunnel, intersection)", scenario)
	}
	if err != nil {
		return err
	}

	fmt.Printf("simulated %q: %d frames, %d vehicles, %d incidents\n",
		scene.Name, len(scene.Frames), scene.VehicleCount(), len(scene.Incidents))
	clip, err := core.ProcessSceneStream(scene, core.DefaultConfig())
	if err != nil {
		return err
	}
	if name == "" {
		name = scenario
	}
	rec, err := clip.Record(name)
	if err != nil {
		return err
	}
	st := rec.Stats()
	fmt.Printf("processed: %d tracks, %d VSs, %d TSs\n", len(clip.Tracks), st.VSCount, st.TSCount)
	if q, err := clip.TrackingQuality(12); err == nil {
		fmt.Printf("tracking quality: %v\n", q)
	}

	db := videodb.New()
	if _, statErr := os.Stat(out); statErr == nil {
		db, err = videodb.LoadFile(out)
		if err != nil {
			return err
		}
	} else if !errors.Is(statErr, os.ErrNotExist) {
		return statErr
	}
	if err := db.Add(rec); err != nil {
		return err
	}
	if err := db.SaveFile(out); err != nil {
		return err
	}
	fmt.Printf("stored clip %q in %s (%d clips total)\n", name, out, db.Len())
	return nil
}
