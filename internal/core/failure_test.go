package core

import (
	"math/rand"
	"testing"

	"milvideo/internal/frame"
	"milvideo/internal/retrieval"
	"milvideo/internal/window"
)

// TestPipelineOnBlankVideo: a clip with no moving objects must flow
// through the pipeline without error and produce an empty (but
// well-formed) VS database.
func TestPipelineOnBlankVideo(t *testing.T) {
	v := &frame.Video{FPS: 25, Name: "blank"}
	for i := 0; i < 80; i++ {
		f := frame.NewGray(160, 120)
		f.Fill(100)
		v.Frames = append(v.Frames, f)
	}
	c, err := ProcessVideoStream(v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Tracks) != 0 {
		t.Fatalf("phantom tracks on a blank clip: %d", len(c.Tracks))
	}
	if window.CountTS(c.VSs) != 0 {
		t.Fatal("phantom TSs")
	}
	// A session over the empty database still runs (everything is
	// irrelevant).
	sess := c.Session(retrieval.FuncOracle(func(window.VS) bool { return false }), 5)
	res, err := sess.Run(retrieval.MILEngine{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rounds {
		if r.Accuracy != 0 {
			t.Fatalf("accuracy on blank clip: %v", r.Accuracy)
		}
	}
}

// TestPipelineOnPureNoise: frames of saturated random noise must not
// crash any stage; whatever spurious blobs survive morphology produce
// at most short tentative tracks.
func TestPipelineOnPureNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := &frame.Video{FPS: 25, Name: "noise"}
	for i := 0; i < 60; i++ {
		f := frame.NewGray(160, 120)
		for p := range f.Pix {
			f.Pix[p] = uint8(rng.Intn(256))
		}
		v.Frames = append(v.Frames, f)
	}
	c, err := ProcessVideoStream(v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Saturated noise differs from the median background almost
	// everywhere, so the whole frame becomes one giant foreground
	// blob whose centroid sits stably at the center — the pipeline
	// legitimately tracks it. The invariant worth holding is that the
	// noise does not shatter into many phantom vehicles.
	if len(c.Tracks) > 10 {
		t.Fatalf("noise shattered into %d tracks", len(c.Tracks))
	}
}

// TestPipelineOnInconsistentUser: an oracle that contradicts itself
// across rounds (answers depend on call count) must not break the
// session; accuracies just reflect the noise.
func TestPipelineOnInconsistentUser(t *testing.T) {
	c := processed(t)
	calls := 0
	flaky := retrieval.FuncOracle(func(vs window.VS) bool {
		calls++
		return calls%3 == 0
	})
	sess := c.Session(flaky, 10)
	res, err := sess.Run(retrieval.MILEngine{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("rounds: %d", len(res.Rounds))
	}
}
