// Package track implements frame-to-frame vehicle tracking (paper
// §3.1): detections from the segmentation stage are associated to
// existing tracks by solving a gated minimum-cost assignment
// (Hungarian algorithm over predicted-position distances), and each
// track accumulates the series of centroids that the trajectory
// modeling stage consumes.
//
// Track lifecycle: a new detection births a tentative track, which is
// confirmed after MinHits consecutive associations; a confirmed track
// that misses detections coasts on its constant-velocity prediction
// for up to MaxMissed frames before being terminated.
package track

import (
	"errors"
	"fmt"
	"math"

	"milvideo/internal/assign"
	"milvideo/internal/geom"
	"milvideo/internal/segment"
)

// Observation is one per-frame sample of a track.
type Observation struct {
	Frame     int
	Centroid  geom.Point
	MBR       geom.Rect
	Area      int
	MeanShade float64
	// Predicted marks coasted samples (no matching detection; the
	// constant-velocity model filled the gap).
	Predicted bool
}

// Track is one tracked vehicle: an ID and its observation series.
type Track struct {
	ID           int
	Observations []Observation
	// Confirmed becomes true once the track has at least MinHits
	// real observations; tentative tracks that die early are dropped.
	Confirmed bool

	missed int
	dead   bool
}

// Start returns the first observed frame index.
func (t *Track) Start() int { return t.Observations[0].Frame }

// End returns the last observed frame index.
func (t *Track) End() int { return t.Observations[len(t.Observations)-1].Frame }

// Len returns the number of observations.
func (t *Track) Len() int { return len(t.Observations) }

// At returns the observation at frame f and whether the track covers
// that frame.
func (t *Track) At(f int) (Observation, bool) {
	if len(t.Observations) == 0 || f < t.Start() || f > t.End() {
		return Observation{}, false
	}
	// Observations are contiguous in frame index by construction.
	return t.Observations[f-t.Start()], true
}

// velocity estimates the current velocity from the last two
// observations (pixels per frame).
func (t *Track) velocity() geom.Vec {
	n := len(t.Observations)
	if n < 2 {
		return geom.V(0, 0)
	}
	a, b := t.Observations[n-2], t.Observations[n-1]
	df := b.Frame - a.Frame
	if df <= 0 {
		return geom.V(0, 0)
	}
	return b.Centroid.Sub(a.Centroid).Scale(1 / float64(df))
}

// predict returns the expected centroid at the next frame: the
// constant-velocity two-point extrapolation.
func (t *Track) predict() geom.Point {
	last := t.Observations[len(t.Observations)-1]
	return last.Centroid.Add(t.velocity())
}

// Options configures the tracker.
type Options struct {
	// MaxDist gates association: detections farther than this from a
	// track's predicted position can never match it.
	MaxDist float64
	// MaxMissed is how many consecutive frames a confirmed track may
	// coast before termination.
	MaxMissed int
	// MinHits is how many observations confirm a tentative track.
	MinHits int
}

// DefaultOptions returns the association parameters used by the
// experiments, sized for vehicle speeds up to ~6 px/frame.
func DefaultOptions() Options {
	return Options{MaxDist: 18, MaxMissed: 4, MinHits: 3}
}

// Tracker maintains the track population across frames.
type Tracker struct {
	opt    Options
	live   []*Track
	closed []*Track
	nextID int
	frame  int
}

// NewTracker returns a tracker with the given options; zero-valued
// fields fall back to defaults.
func NewTracker(opt Options) *Tracker {
	d := DefaultOptions()
	if opt.MaxDist <= 0 {
		opt.MaxDist = d.MaxDist
	}
	if opt.MaxMissed <= 0 {
		opt.MaxMissed = d.MaxMissed
	}
	if opt.MinHits <= 0 {
		opt.MinHits = d.MinHits
	}
	return &Tracker{opt: opt}
}

// Update associates the detections of frame index f with the current
// tracks. Frames must be presented in strictly increasing order.
func (tr *Tracker) Update(f int, segs []segment.Segment) error {
	if len(tr.live) > 0 || len(tr.closed) > 0 || tr.frame > 0 {
		if f < tr.frame {
			return fmt.Errorf("track: frame %d after frame %d", f, tr.frame)
		}
	}
	tr.frame = f + 1

	// Cost matrix: predicted-position distance, gated by MaxDist.
	n, m := len(tr.live), len(segs)
	cost := make([][]float64, n)
	for i, t := range tr.live {
		cost[i] = make([]float64, m)
		pred := t.predict()
		for j := range segs {
			d := pred.Dist(segs[j].Centroid)
			if d > tr.opt.MaxDist {
				cost[i][j] = math.Inf(1)
			} else {
				cost[i][j] = d
			}
		}
	}
	var rowToCol []int
	if n > 0 && m > 0 {
		var err error
		rowToCol, _, err = assign.Hungarian(cost)
		if err != nil {
			return fmt.Errorf("track: association failed: %w", err)
		}
	} else {
		rowToCol = make([]int, n)
		for i := range rowToCol {
			rowToCol[i] = -1
		}
	}

	usedDet := make([]bool, m)
	var surviving []*Track
	for i, t := range tr.live {
		j := rowToCol[i]
		if j >= 0 {
			usedDet[j] = true
			t.Observations = append(t.Observations, Observation{
				Frame:     f,
				Centroid:  segs[j].Centroid,
				MBR:       segs[j].MBR,
				Area:      segs[j].Area,
				MeanShade: segs[j].MeanShade,
			})
			t.missed = 0
			if !t.Confirmed {
				real := 0
				for _, o := range t.Observations {
					if !o.Predicted {
						real++
					}
				}
				if real >= tr.opt.MinHits {
					t.Confirmed = true
				}
			}
			surviving = append(surviving, t)
			continue
		}
		// No detection: coast or die.
		t.missed++
		if t.missed > tr.opt.MaxMissed || !t.Confirmed {
			tr.closeTrack(t)
			continue
		}
		pred := t.predict()
		last := t.Observations[len(t.Observations)-1]
		t.Observations = append(t.Observations, Observation{
			Frame:     f,
			Centroid:  pred,
			MBR:       geom.RectFromCenter(pred, last.MBR.Width(), last.MBR.Height()),
			Area:      last.Area,
			MeanShade: last.MeanShade,
			Predicted: true,
		})
		surviving = append(surviving, t)
	}
	tr.live = surviving

	// Unmatched detections birth tentative tracks.
	for j, s := range segs {
		if usedDet[j] {
			continue
		}
		t := &Track{
			ID: tr.nextID,
			Observations: []Observation{{
				Frame:     f,
				Centroid:  s.Centroid,
				MBR:       s.MBR,
				Area:      s.Area,
				MeanShade: s.MeanShade,
			}},
		}
		if tr.opt.MinHits <= 1 {
			t.Confirmed = true
		}
		tr.nextID++
		tr.live = append(tr.live, t)
	}
	return nil
}

// closeTrack finalizes a track: trailing predicted observations are
// trimmed (they were never corroborated), and only confirmed tracks
// are kept.
func (tr *Tracker) closeTrack(t *Track) {
	for len(t.Observations) > 0 && t.Observations[len(t.Observations)-1].Predicted {
		t.Observations = t.Observations[:len(t.Observations)-1]
	}
	t.dead = true
	if t.Confirmed && len(t.Observations) > 0 {
		tr.closed = append(tr.closed, t)
	}
}

// Flush terminates all remaining live tracks (call after the last
// frame) and returns every confirmed track, ordered by ID.
func (tr *Tracker) Flush() []*Track {
	for _, t := range tr.live {
		tr.closeTrack(t)
	}
	tr.live = nil
	return tr.closed
}

// Live returns the currently active (not yet terminated) tracks.
func (tr *Tracker) Live() []*Track { return tr.live }

// ErrEmptyVideo reports a clip with no frames to track.
var ErrEmptyVideo = errors.New("track: empty video")
