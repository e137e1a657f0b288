package segment

import (
	"bytes"
	"math/rand"
	"testing"

	"milvideo/internal/frame"
	"milvideo/internal/render"
	"milvideo/internal/sim"
)

// LearnBackgroundRef is the straightforward single-threaded
// sort-per-pixel reference implementation of LearnBackground: the
// oracle of the histogram path (the two must agree exactly) and the
// baseline of BenchmarkBackgroundModelRef.
func LearnBackgroundRef(frames []*frame.Gray, sample int) (*frame.Gray, error) {
	picked, bg, err := pickFrames(frames, sample)
	if err != nil {
		return nil, err
	}
	medianSortAll(picked, bg.Pix)
	return bg, nil
}

// BenchmarkBackgroundModelRef measures LearnBackgroundRef over every
// frame of the root package's 300-frame bench clip (the same scene
// and options as BenchmarkBackgroundModel there): the baseline the
// histogram path is measured against (see DESIGN.md's Performance
// section).
func BenchmarkBackgroundModelRef(b *testing.B) {
	scene, err := sim.Tunnel(sim.TunnelConfig{
		Frames: 300, Seed: 9, SpawnEvery: 80, WallCrash: 1, FPS: 25,
	})
	if err != nil {
		b.Fatal(err)
	}
	clip, err := render.Video(scene, render.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LearnBackgroundRef(clip.Frames, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// randFrames builds n seeded random frames of the given size.
func randFrames(rng *rand.Rand, n, w, h int) []*frame.Gray {
	out := make([]*frame.Gray, n)
	for i := range out {
		f := frame.NewGray(w, h)
		for p := range f.Pix {
			f.Pix[p] = uint8(rng.Intn(256))
		}
		out[i] = f
	}
	return out
}

// TestHistogramMedianMatchesRef proves the histogram (and small-count
// insertion-sort) median path byte-identical to the sort-per-pixel
// reference across frame counts on both sides of the n≤12 switch,
// including even counts (where the upper-middle order statistic is the
// specified answer).
func TestHistogramMedianMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 4, 11, 12, 13, 14, 29, 30} {
		frames := randFrames(rng, n, 37, 23) // odd size: partial last strip
		got, err := LearnBackground(frames, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := LearnBackgroundRef(frames, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("n=%d: histogram median differs from sort reference", n)
		}
	}
}

// TestLearnBackgroundEvenCountUpperMiddle pins the even-count median
// convention explicitly: for samples {10, 20, 30, 40} the background
// is 30 (index n/2), not the lower middle or the average.
func TestLearnBackgroundEvenCountUpperMiddle(t *testing.T) {
	var frames []*frame.Gray
	for _, v := range []uint8{40, 10, 30, 20} {
		f := frame.NewGray(4, 4)
		for p := range f.Pix {
			f.Pix[p] = v
		}
		frames = append(frames, f)
	}
	bg, err := LearnBackground(frames, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range bg.Pix {
		if v != 30 {
			t.Fatalf("even-count median = %d, want 30", v)
		}
	}
}

// TestLearnBackgroundConstantPixels: a constant scene must reproduce
// exactly, for both the insertion-sort and the histogram path.
func TestLearnBackgroundConstantPixels(t *testing.T) {
	for _, n := range []int{5, 20} {
		var frames []*frame.Gray
		for i := 0; i < n; i++ {
			f := frame.NewGray(8, 8)
			for p := range f.Pix {
				f.Pix[p] = 137
			}
			frames = append(frames, f)
		}
		bg, err := LearnBackground(frames, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range bg.Pix {
			if v != 137 {
				t.Fatalf("n=%d: constant background %d, want 137", n, v)
			}
		}
	}
}

// TestLearnBackgroundParallelMatchesSerial forces multi-worker strip
// processing (the container may expose one CPU) and requires byte
// identity with the single-worker run.
func TestLearnBackgroundParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// 80×80 = 6400 pixels = 7 strips: enough for real work sharing.
	frames := randFrames(rng, 25, 80, 80)

	old := learnWorkers
	defer func() { learnWorkers = old }()

	learnWorkers = 1
	serial, err := LearnBackground(frames, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		learnWorkers = w
		got, err := LearnBackground(frames, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Pix, serial.Pix) {
			t.Fatalf("workers=%d: parallel background differs from serial", w)
		}
	}
}
