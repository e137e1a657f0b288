package track

import (
	"math"
	"testing"

	"milvideo/internal/geom"
	"milvideo/internal/render"
	"milvideo/internal/segment"
	"milvideo/internal/sim"
)

// det builds a detection at (x, y).
func det(x, y float64) segment.Segment {
	return segment.Segment{
		Centroid: geom.Pt(x, y),
		MBR:      geom.RectFromCenter(geom.Pt(x, y), 10, 6),
		Area:     60,
	}
}

func TestSingleTargetTracking(t *testing.T) {
	tr := NewTracker(Options{MaxDist: 15, MaxMissed: 3, MinHits: 2})
	for f := 0; f < 10; f++ {
		if err := tr.Update(f, []segment.Segment{det(float64(10+3*f), 20)}); err != nil {
			t.Fatal(err)
		}
	}
	tracks := tr.Flush()
	if len(tracks) != 1 {
		t.Fatalf("got %d tracks", len(tracks))
	}
	tk := tracks[0]
	if !tk.Confirmed || tk.Len() != 10 {
		t.Fatalf("track: confirmed=%v len=%d", tk.Confirmed, tk.Len())
	}
	if tk.Start() != 0 || tk.End() != 9 {
		t.Fatalf("span: %d-%d", tk.Start(), tk.End())
	}
	if o, ok := tk.At(4); !ok || o.Centroid.X != 22 {
		t.Fatalf("At(4): %v %v", o, ok)
	}
	if _, ok := tk.At(99); ok {
		t.Fatal("At out of range must report false")
	}
}

func TestTwoTargetsCrossingAreKeptApart(t *testing.T) {
	// Two targets move toward each other on distinct rows; with
	// Hungarian association and velocity prediction they must retain
	// identity.
	tr := NewTracker(Options{MaxDist: 15, MaxMissed: 2, MinHits: 2})
	for f := 0; f < 20; f++ {
		a := det(float64(10+4*f), 20)
		b := det(float64(90-4*f), 32)
		if err := tr.Update(f, []segment.Segment{a, b}); err != nil {
			t.Fatal(err)
		}
	}
	tracks := tr.Flush()
	if len(tracks) != 2 {
		t.Fatalf("got %d tracks", len(tracks))
	}
	for _, tk := range tracks {
		first := tk.Observations[0].Centroid.Y
		for _, o := range tk.Observations {
			if o.Centroid.Y != first {
				t.Fatalf("track %d switched rows: %v", tk.ID, o)
			}
		}
	}
}

func TestCoastingThroughOcclusion(t *testing.T) {
	tr := NewTracker(Options{MaxDist: 15, MaxMissed: 4, MinHits: 2})
	// Target visible, then occluded for 3 frames, then reappears where
	// the constant-velocity model predicts.
	for f := 0; f < 6; f++ {
		if err := tr.Update(f, []segment.Segment{det(float64(10+5*f), 20)}); err != nil {
			t.Fatal(err)
		}
	}
	for f := 6; f < 9; f++ {
		if err := tr.Update(f, nil); err != nil {
			t.Fatal(err)
		}
	}
	for f := 9; f < 14; f++ {
		if err := tr.Update(f, []segment.Segment{det(float64(10+5*f), 20)}); err != nil {
			t.Fatal(err)
		}
	}
	tracks := tr.Flush()
	if len(tracks) != 1 {
		t.Fatalf("occlusion split the track: %d tracks", len(tracks))
	}
	tk := tracks[0]
	if tk.Len() != 14 {
		t.Fatalf("length %d, want 14 (including coasted frames)", tk.Len())
	}
	// The coasted observations are marked predicted.
	pred := 0
	for _, o := range tk.Observations {
		if o.Predicted {
			pred++
		}
	}
	if pred != 3 {
		t.Fatalf("predicted observations: %d", pred)
	}
}

func TestTrackDiesAfterMaxMissed(t *testing.T) {
	tr := NewTracker(Options{MaxDist: 15, MaxMissed: 2, MinHits: 2})
	for f := 0; f < 5; f++ {
		if err := tr.Update(f, []segment.Segment{det(float64(10+3*f), 20)}); err != nil {
			t.Fatal(err)
		}
	}
	for f := 5; f < 10; f++ {
		if err := tr.Update(f, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.Live()) != 0 {
		t.Fatalf("track still live after %d misses", 5)
	}
	tracks := tr.Flush()
	if len(tracks) != 1 {
		t.Fatalf("confirmed track lost: %d", len(tracks))
	}
	// Trailing predictions are trimmed: last observation is real.
	last := tracks[0].Observations[tracks[0].Len()-1]
	if last.Predicted || last.Frame != 4 {
		t.Fatalf("trailing predictions not trimmed: %+v", last)
	}
}

func TestTentativeTrackDroppedOnMiss(t *testing.T) {
	tr := NewTracker(Options{MaxDist: 15, MaxMissed: 5, MinHits: 3})
	// Only two hits (below MinHits), then gone: must not be reported.
	if err := tr.Update(0, []segment.Segment{det(10, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Update(1, []segment.Segment{det(12, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Update(2, nil); err != nil {
		t.Fatal(err)
	}
	if tracks := tr.Flush(); len(tracks) != 0 {
		t.Fatalf("tentative track reported: %d", len(tracks))
	}
}

func TestNewDetectionsBirthTracks(t *testing.T) {
	tr := NewTracker(Options{MaxDist: 10, MaxMissed: 2, MinHits: 1})
	if err := tr.Update(0, []segment.Segment{det(10, 10), det(50, 50)}); err != nil {
		t.Fatal(err)
	}
	if len(tr.Live()) != 2 {
		t.Fatalf("live: %d", len(tr.Live()))
	}
	// MinHits = 1 confirms immediately.
	for _, tk := range tr.Live() {
		if !tk.Confirmed {
			t.Fatal("MinHits=1 must confirm on birth")
		}
	}
}

func TestGatingPreventsWildJumps(t *testing.T) {
	tr := NewTracker(Options{MaxDist: 8, MaxMissed: 1, MinHits: 1})
	if err := tr.Update(0, []segment.Segment{det(10, 10)}); err != nil {
		t.Fatal(err)
	}
	// A detection far outside the gate must start a new track, not
	// teleport the old one.
	if err := tr.Update(1, []segment.Segment{det(200, 200)}); err != nil {
		t.Fatal(err)
	}
	live := tr.Live()
	found := false
	for _, tk := range live {
		if tk.Observations[0].Centroid.X == 200 {
			found = true
			if tk.ID == 0 {
				t.Fatal("far detection reused the old track")
			}
		}
	}
	if !found {
		t.Fatal("far detection did not birth a track")
	}
}

func TestUpdateRejectsBackwardFrames(t *testing.T) {
	tr := NewTracker(DefaultOptions())
	if err := tr.Update(5, nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.Update(3, nil); err == nil {
		t.Fatal("backward frame accepted")
	}
}

func TestGreedyOptionWorks(t *testing.T) {
	tr := NewTracker(Options{MaxDist: 15, MaxMissed: 2, MinHits: 1, Greedy: true})
	for f := 0; f < 5; f++ {
		if err := tr.Update(f, []segment.Segment{det(float64(10+3*f), 20)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.Flush()) != 1 {
		t.Fatal("greedy tracker lost the target")
	}
}

func TestVideoEndToEndOnSimulatedScene(t *testing.T) {
	scene, err := sim.Tunnel(sim.TunnelConfig{Frames: 260, Seed: 5, SpawnEvery: 70, WallCrash: 1, FPS: 25})
	if err != nil {
		t.Fatal(err)
	}
	clip, err := render.Video(scene, render.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ex, err := segment.NewExtractor(clip, segment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(DefaultOptions())
	for i, f := range clip.Frames {
		segs, err := ex.Segments(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Update(i, segs); err != nil {
			t.Fatal(err)
		}
	}
	tracks := tr.Flush()
	if len(tracks) == 0 {
		t.Fatal("no tracks from the simulated clip")
	}
	q := Evaluate(tracks, scene, 12)
	if q.Purity < 0.85 {
		t.Fatalf("purity %.2f too low (%v)", q.Purity, q)
	}
	if q.Coverage < 0.5 {
		t.Fatalf("coverage %.2f too low (%v)", q.Coverage, q)
	}
	if q.MeanPositionError > 5 {
		t.Fatalf("position error %.2f too high (%v)", q.MeanPositionError, q)
	}
	if q.String() == "" {
		t.Fatal("empty String")
	}
}

func TestVelocityEstimate(t *testing.T) {
	tk := &Track{Observations: []Observation{
		{Frame: 0, Centroid: geom.Pt(0, 0)},
		{Frame: 2, Centroid: geom.Pt(6, 2)},
	}}
	v := tk.velocity()
	if math.Abs(v.X-3) > 1e-12 || math.Abs(v.Y-1) > 1e-12 {
		t.Fatalf("velocity %v", v)
	}
	one := &Track{Observations: []Observation{{Frame: 0, Centroid: geom.Pt(1, 1)}}}
	if one.velocity() != geom.V(0, 0) {
		t.Fatal("single-observation velocity must be zero")
	}
}
