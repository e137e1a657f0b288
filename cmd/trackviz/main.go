// Command trackviz runs the vision pipeline on a simulated clip and
// renders an ASCII view of chosen frames with the learned background,
// the extracted segments and the track trails, plus a tracking
// quality report against ground truth. It is the debugging lens for
// the segmentation and tracking substrate (the role of the paper's
// Fig. 1 screenshot).
//
// Usage:
//
//	trackviz -scenario tunnel -frame 760
//	trackviz -scenario intersection -frames 592 -quality
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"milvideo/internal/core"
	"milvideo/internal/frame"
	"milvideo/internal/sim"
)

func main() {
	scenario := flag.String("scenario", "tunnel", "scenario: tunnel or intersection")
	frames := flag.Int("frames", 600, "clip length in frames")
	seed := flag.Int64("seed", 1, "simulation seed")
	frameIdx := flag.Int("frame", -1, "frame to render (-1 = densest frame)")
	cols := flag.Int("cols", 96, "ASCII width in characters")
	quality := flag.Bool("quality", true, "print the tracking quality report")
	dump := flag.String("dump", "", "directory to dump the rendered clip as PGM frames")
	flag.Parse()

	if err := run(os.Stdout, *scenario, *frames, *seed, *frameIdx, *cols, *quality, *dump); err != nil {
		fmt.Fprintln(os.Stderr, "trackviz:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, scenario string, frames int, seed int64, frameIdx, cols int, quality bool, dump string) error {
	var scene *sim.Scene
	var err error
	switch scenario {
	case "tunnel":
		cfg := sim.DefaultTunnel()
		cfg.Frames, cfg.Seed = frames, seed
		scene, err = sim.Tunnel(cfg)
	case "intersection":
		cfg := sim.DefaultIntersection()
		cfg.Frames, cfg.Seed = frames, seed
		scene, err = sim.Intersection(cfg)
	default:
		return fmt.Errorf("unknown scenario %q", scenario)
	}
	if err != nil {
		return err
	}
	clip, err := core.ProcessSceneStream(scene, core.DefaultConfig())
	if err != nil {
		return err
	}

	if frameIdx < 0 {
		// Pick the frame with the most simultaneous vehicles.
		best := 0
		for _, fs := range scene.Frames {
			if len(fs.Vehicles) > len(scene.Frames[best].Vehicles) {
				best = fs.Index
			}
		}
		frameIdx = best
	}
	if frameIdx >= clip.Video.Len() {
		return fmt.Errorf("frame %d outside clip of %d frames", frameIdx, clip.Video.Len())
	}

	fmt.Fprintf(out, "frame %d of %q (%d vehicles on scene)\n",
		frameIdx, scene.Name, len(scene.Frames[frameIdx].Vehicles))
	img := clip.Video.Frames[frameIdx].Clone()
	overlayTracks(img, clip, frameIdx)
	fmt.Fprint(out, img.ASCII(cols))

	fmt.Fprintf(out, "\ntracks crossing frame %d:\n", frameIdx)
	for _, t := range clip.Tracks {
		if o, ok := t.At(frameIdx); ok {
			fmt.Fprintf(out, "  track %3d: centroid %v MBR %v (frames %d-%d)\n",
				t.ID, o.Centroid, o.MBR, t.Start(), t.End())
		}
	}
	if quality {
		q, err := clip.TrackingQuality(12)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\ntracking quality: %v\n", q)
	}
	if dump != "" {
		if err := frame.SaveVideoDir(clip.Video, dump); err != nil {
			return err
		}
		fmt.Fprintf(out, "dumped %d PGM frames to %s\n", clip.Video.Len(), dump)
	}
	return nil
}

// overlayTracks paints each track's recent trail into the frame as
// bright dots so the ASCII view shows motion history.
func overlayTracks(img *frame.Gray, clip *core.Clip, at int) {
	for _, t := range clip.Tracks {
		for f := at - 40; f <= at; f++ {
			if o, ok := t.At(f); ok {
				img.Set(int(o.Centroid.X), int(o.Centroid.Y), 255)
			}
		}
	}
}
