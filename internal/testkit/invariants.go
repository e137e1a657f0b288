package testkit

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"milvideo/internal/sim"
	"milvideo/internal/track"
	"milvideo/internal/videodb"
	"milvideo/internal/window"
)

// CheckTrackLifecycle verifies the tracker's output contract for a
// clip of `frames` frames under the given options: every returned
// track is confirmed, its observations are frame-contiguous and in
// range, it begins and ends on a real detection (tentative heads and
// coasted tails never survive Flush), it carries at least MinHits
// real observations, and no coasting run exceeds MaxMissed.
func CheckTrackLifecycle(tracks []*track.Track, frames int, opt track.Options) error {
	minHits, maxMissed := opt.MinHits, opt.MaxMissed
	if minHits <= 0 {
		minHits = track.DefaultOptions().MinHits
	}
	if maxMissed <= 0 {
		maxMissed = track.DefaultOptions().MaxMissed
	}
	for _, tr := range tracks {
		if tr == nil {
			return fmt.Errorf("testkit: nil track in output")
		}
		if !tr.Confirmed {
			return fmt.Errorf("testkit: track %d escaped unconfirmed", tr.ID)
		}
		if tr.Len() == 0 {
			return fmt.Errorf("testkit: track %d has no observations", tr.ID)
		}
		real, coast := 0, 0
		for i, o := range tr.Observations {
			if o.Frame != tr.Start()+i {
				return fmt.Errorf("testkit: track %d: observation %d at frame %d, want contiguous %d",
					tr.ID, i, o.Frame, tr.Start()+i)
			}
			if o.Frame < 0 || o.Frame >= frames {
				return fmt.Errorf("testkit: track %d: frame %d outside clip [0,%d)", tr.ID, o.Frame, frames)
			}
			if o.Predicted {
				coast++
				if coast > maxMissed {
					return fmt.Errorf("testkit: track %d: coasted %d consecutive frames (max %d)",
						tr.ID, coast, maxMissed)
				}
			} else {
				real++
				coast = 0
			}
		}
		if tr.Observations[0].Predicted {
			return fmt.Errorf("testkit: track %d starts on a predicted observation", tr.ID)
		}
		if tr.Observations[tr.Len()-1].Predicted {
			return fmt.Errorf("testkit: track %d ends on a predicted observation", tr.ID)
		}
		if real < minHits {
			return fmt.Errorf("testkit: track %d confirmed with %d real observations (MinHits %d)",
				tr.ID, real, minHits)
		}
	}
	return nil
}

// CheckRankingPermutation verifies a served ranking is exactly a
// permutation of the database's VS indices: same length, every index
// present once.
func CheckRankingPermutation(ranking []int, vss []window.VS) error {
	if len(ranking) != len(vss) {
		return fmt.Errorf("testkit: ranking has %d entries for a %d-VS database", len(ranking), len(vss))
	}
	want := make(map[int]bool, len(vss))
	for _, vs := range vss {
		want[vs.Index] = true
	}
	seen := make(map[int]bool, len(ranking))
	for _, idx := range ranking {
		if !want[idx] {
			return fmt.Errorf("testkit: ranking contains unknown VS %d", idx)
		}
		if seen[idx] {
			return fmt.Errorf("testkit: ranking repeats VS %d", idx)
		}
		seen[idx] = true
	}
	return nil
}

// CheckBagConsistency verifies the MIL bag structure of an extracted
// VS database for a clip of `frames` frames: VS indices are unique,
// every frame interval is legal, and each trajectory sequence (an
// instance in the bag) holds exactly WindowSize feature vectors of
// equal, nonzero dimension.
func CheckBagConsistency(vss []window.VS, frames int, cfg window.Config) error {
	winSize := cfg.WindowSize
	if winSize <= 0 {
		winSize = window.DefaultConfig().WindowSize
	}
	seen := make(map[int]bool, len(vss))
	for _, vs := range vss {
		if seen[vs.Index] {
			return fmt.Errorf("testkit: duplicate VS index %d", vs.Index)
		}
		seen[vs.Index] = true
		if vs.StartFrame < 0 || vs.EndFrame >= frames || vs.StartFrame > vs.EndFrame {
			return fmt.Errorf("testkit: VS %d has bad interval [%d,%d] for %d frames",
				vs.Index, vs.StartFrame, vs.EndFrame, frames)
		}
		for t, ts := range vs.TSs {
			if len(ts.Vectors) != winSize {
				return fmt.Errorf("testkit: VS %d TS %d has %d vectors, want WindowSize %d",
					vs.Index, t, len(ts.Vectors), winSize)
			}
			dim := -1
			for v, vec := range ts.Vectors {
				if len(vec) == 0 {
					return fmt.Errorf("testkit: VS %d TS %d vector %d is empty", vs.Index, t, v)
				}
				if dim == -1 {
					dim = len(vec)
				} else if len(vec) != dim {
					return fmt.Errorf("testkit: VS %d TS %d mixes feature dims %d and %d",
						vs.Index, t, dim, len(vec))
				}
			}
		}
	}
	return nil
}

// CheckDBRoundTrip verifies persistence identity: saving the catalog
// and loading it back yields a catalog whose serialization is
// byte-identical to the first (same clips, same record content, same
// order). Byte identity requires deterministic encoding, which holds
// for every pipeline-produced record (gob's map randomization only
// bites Meta maps with two or more keys).
func CheckDBRoundTrip(db *videodb.DB) error {
	var first bytes.Buffer
	if err := db.Save(&first); err != nil {
		return fmt.Errorf("testkit: save: %w", err)
	}
	reloaded := videodb.New()
	if err := reloaded.Load(bytes.NewReader(first.Bytes())); err != nil {
		return fmt.Errorf("testkit: load: %w", err)
	}
	var second bytes.Buffer
	if err := reloaded.Save(&second); err != nil {
		return fmt.Errorf("testkit: re-save: %w", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		return fmt.Errorf("testkit: round trip changed the catalog encoding (%d vs %d bytes)",
			first.Len(), second.Len())
	}
	return nil
}

// Signature gob-encodes a clip's learning-visible output (tracks and
// VS database) into a comparable byte string: two byte-equal
// signatures mean identical observations, confirmations, features and
// windows. It is the byte-identity primitive behind the zero-rate
// inertness tests. Compare signatures made in one process only: gob
// numbers types process-wide in first-use order, so the same clip
// encodes differently after other types were encoded first.
func Signature(tracks []*track.Track, vss []window.VS) ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(tracks); err != nil {
		return nil, fmt.Errorf("testkit: signature: %w", err)
	}
	if err := enc.Encode(vss); err != nil {
		return nil, fmt.Errorf("testkit: signature: %w", err)
	}
	return buf.Bytes(), nil
}

// SceneSignature gob-encodes a simulated scene — frames, incident log
// and walls — into a comparable byte string. It is the determinism
// primitive for scenario generators: byte-equal signatures mean the
// same kinematics and the same ground-truth labels, not merely
// equal-looking summaries.
func SceneSignature(s *sim.Scene) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("testkit: scene signature: %w", err)
	}
	return buf.Bytes(), nil
}
