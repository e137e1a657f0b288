package experiments

import (
	"milvideo/internal/core"
	"milvideo/internal/geom"
	"milvideo/internal/homography"
	"milvideo/internal/mil"
	"milvideo/internal/retrieval"
	"milvideo/internal/sim"
	"milvideo/internal/track"
	"milvideo/internal/window"
)

// CrossCamera realizes the paper's §6.2 future-work scenario:
// "ideally, all the video clips in a transportation surveillance
// video database shall be mined and retrieved as a whole… it requires
// that we normalize all the video clips taken at different locations
// with different camera parameters."
//
// Two tunnel clips are simulated with different traffic (different
// seeds). Camera A observes the road frontally; camera B views the
// same geometry through a projective distortion (a different mounting
// angle), simulated by mapping B's tracked trajectories through a
// ground-truth homography. Four road markers with known road-plane
// positions are visible to both cameras; per-camera homographies
// estimated from those markers normalize both clips into the shared
// road frame. One MIL retrieval session then searches the merged
// database. The comparison row runs the same merged session without
// normalization — camera B's distorted kinematics no longer match
// camera A's, so feedback from one camera fails to transfer.
func CrossCamera() (Table, error) {
	cfgA := sim.DefaultTunnel()
	cfgA.Frames = 1500
	cfgA.WallCrash, cfgA.SuddenStop, cfgA.HardBrake, cfgA.Speeding = 7, 2, 7, 1
	cfgB := cfgA
	cfgB.Seed = 77

	pipeline := core.DefaultConfig()
	clipA, err := cachedClip("crosscam/a", func() (*core.Clip, error) {
		scene, err := sim.Tunnel(cfgA)
		if err != nil {
			return nil, err
		}
		return core.ProcessScene(scene, pipeline)
	})
	if err != nil {
		return Table{}, err
	}
	clipB, err := cachedClip("crosscam/b", func() (*core.Clip, error) {
		scene, err := sim.Tunnel(cfgB)
		if err != nil {
			return nil, err
		}
		return core.ProcessScene(scene, pipeline)
	})
	if err != nil {
		return Table{}, err
	}

	// Camera B's mounting: a strongly oblique view of the road plane
	// (pixel scale varies ~2.5× across the frame). Its tracker output
	// lives in B's image coordinates.
	camB := homography.Homography{M: [3][3]float64{
		{0.55, 0.18, 20},
		{-0.08, 0.42, 45},
		{0.0028, 0.0008, 1},
	}}
	tracksBImage, err := homography.NormalizeTracks(clipB.Tracks, camB)
	if err != nil {
		return Table{}, err
	}

	// Both cameras see four painted road markers whose road-plane
	// positions are surveyed; camera A's image frame coincides with
	// the road frame, camera B's does not.
	markers := []geom.Point{
		geom.Pt(20, 90), geom.Pt(300, 90), geom.Pt(300, 150), geom.Pt(20, 150),
	}
	var corrB []homography.Correspondence
	for _, m := range markers {
		img, err := camB.Apply(m)
		if err != nil {
			return Table{}, err
		}
		corrB = append(corrB, homography.Correspondence{Image: img, World: m})
	}
	normB, err := homography.Estimate(corrB)
	if err != nil {
		return Table{}, err
	}
	tracksBNormalized, err := homography.NormalizeTracks(tracksBImage, normB)
	if err != nil {
		return Table{}, err
	}

	// Transfer protocol: the user's feedback exists only for camera A
	// (a previously mined clip). The learner trained on A's labels
	// ranks the *merged* database; accuracy is measured over the
	// top-10 camera-B windows of that ranking — does A's knowledge
	// find B's incidents?
	oracleA := retrieval.SceneOracle{Scene: clipA.Scene, MinOverlap: pipeline.Window.SampleRate}
	oracleB := retrieval.SceneOracle{Scene: clipB.Scene, MinOverlap: pipeline.Window.SampleRate}
	sessA := &retrieval.Session{DB: clipA.VSs, Oracle: oracleA, TopK: TopK}
	resA, err := sessA.Run(retrieval.MILEngine{Opt: mil.DefaultOptions()}, 3)
	if err != nil {
		return Table{}, err
	}
	labelsA := resA.Labels

	const offset = 1 << 16
	evaluate := func(tracksB []*track.Track) (merged, transfer float64, err error) {
		vssB, err := window.Extract(tracksB, pipeline.Model, clipB.Video.Len(), pipeline.Window)
		if err != nil {
			return 0, 0, err
		}
		db := make([]window.VS, 0, len(clipA.VSs)+len(vssB))
		db = append(db, clipA.VSs...)
		for _, vs := range vssB {
			vs.Index += offset
			db = append(db, vs)
		}
		relevant := func(vs window.VS) bool {
			if vs.Index >= offset {
				return oracleB.Relevant(vs)
			}
			return oracleA.Relevant(vs)
		}
		engine := retrieval.MILEngine{Opt: mil.DefaultOptions()}

		// Merged initial query: the heuristic over both cameras at
		// once (no feedback). Feature scales must be commensurable
		// across cameras for this to work.
		initRank, err := engine.Rank(db, nil)
		if err != nil {
			return 0, 0, err
		}
		found := 0
		for _, idx := range initRank[:TopK] {
			if relevant(db[idx]) {
				found++
			}
		}
		merged = float64(found) / float64(TopK)

		// A→B transfer: the learner trained on camera A's labels
		// ranks everything; accuracy over the top-10 camera-B windows.
		rank, err := engine.Rank(db, labelsA)
		if err != nil {
			return 0, 0, err
		}
		const kB = 10
		foundB, seenB := 0, 0
		for _, idx := range rank {
			vs := db[idx]
			if vs.Index < offset {
				continue // camera-A window: the user already knows it
			}
			seenB++
			if oracleB.Relevant(vs) {
				foundB++
			}
			if seenB == kB {
				break
			}
		}
		if seenB > 0 {
			transfer = float64(foundB) / float64(seenB)
		}
		return merged, transfer, nil
	}

	normMerged, normTransfer, err := evaluate(tracksBNormalized)
	if err != nil {
		return Table{}, err
	}
	rawMerged, rawTransfer, err := evaluate(tracksBImage)
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:  "§6.2 cross-camera retrieval (feedback on camera A only)",
		Header: []string{"camera-B trajectories", "merged initial query", "A→B transfer (top-10 on B)"},
		Rows: [][]string{
			{"normalized (marker homography)", pct(normMerged), pct(normTransfer)},
			{"raw image coordinates", pct(rawMerged), pct(rawTransfer)},
		},
	}, nil
}
