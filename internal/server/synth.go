package server

import (
	"fmt"
	"math"
	"math/rand"

	"milvideo/internal/event"
	"milvideo/internal/geom"
	"milvideo/internal/sim"
	"milvideo/internal/videodb"
	"milvideo/internal/window"
)

// DemoClip is the clip name SynthRecord stores, shared by
// `serve -demo` and `loadgen -demo` so the two binaries agree without
// a catalog file.
const DemoClip = "synth"

// SynthRecord builds a synthetic clip record directly at the feature
// level — no rendering, segmentation, or tracking — whose incident
// log marks the accident windows, so ground-truth judges on both
// sides of the wire (core.OracleFromRecord offline, JudgeFromRecord
// on the client) agree exactly. Each VS occupies its own 15-frame
// stripe; relevant VSs carry one accident-spike trajectory and a
// wall-crash incident spanning the window, distractors a
// deceleration-only spike, the rest smooth traffic. It backs the demo
// catalog of cmd/serve, the load generator's synthetic oracle
// sessions, and the server test fixtures.
func SynthRecord(seed int64, nRelevant, nDistractor, nNormal int) (*videodb.ClipRecord, error) {
	rng := rand.New(rand.NewSource(seed))
	n3 := func(scale float64) []float64 {
		return []float64{
			math.Abs(rng.NormFloat64()) * 0.03 * scale,
			math.Abs(rng.NormFloat64()) * 0.1 * scale,
			math.Abs(rng.NormFloat64()) * 0.05 * scale,
		}
	}
	var vss []window.VS
	var incidents []sim.Incident
	idx := 0
	mkVS := func(tss ...window.TS) window.VS {
		vs := window.VS{Index: idx, StartFrame: idx * 15, EndFrame: idx*15 + 10, TSs: tss}
		idx++
		return vs
	}
	normalTS := func(id int) window.TS {
		s := 1 + rng.Float64()*5
		return window.TS{TrackID: id, Vectors: [][]float64{n3(s), n3(s), n3(s)}}
	}
	for i := 0; i < nRelevant; i++ {
		peak := []float64{0.35 + rng.Float64()*0.1, 2.6 + rng.NormFloat64()*0.5, 1.1 + rng.NormFloat64()*0.2}
		after := []float64{0.3 + rng.Float64()*0.1, 0.5 + rng.NormFloat64()*0.1, 0.25 + rng.NormFloat64()*0.08}
		acc := window.TS{TrackID: 100 + i, Vectors: [][]float64{n3(1), peak, after}}
		// A second vehicle arrives right after the crash — the witness
		// the composed seq(stop, arrive) predicate query needs. Its
		// vectors are constant literals (quiet traffic), deliberately
		// drawn from no rng so the feature stream above stays
		// byte-identical to the pre-kinematics catalog.
		witness := window.TS{TrackID: 600 + i, Vectors: [][]float64{
			{0.01, 0.05, 0.02}, {0.012, 0.05, 0.02}, {0.011, 0.05, 0.02},
		}}
		vs := mkVS(acc, witness)
		if i%3 == 0 {
			vs.TSs = append(vs.TSs, normalTS(200+i))
		}
		incidents = append(incidents, sim.Incident{
			Type: sim.WallCrash, Start: vs.StartFrame, End: vs.EndFrame, Vehicles: []int{100 + i},
		})
		vss = append(vss, vs)
	}
	for i := 0; i < nDistractor; i++ {
		spike := []float64{0.02 + rng.Float64()*0.02, 2.3 + rng.NormFloat64()*0.5, 0.05 + math.Abs(rng.NormFloat64())*0.04}
		dis := window.TS{TrackID: 300 + i, Vectors: [][]float64{n3(1), spike, n3(1)}}
		vss = append(vss, mkVS(dis))
	}
	for i := 0; i < nNormal; i++ {
		vs := mkVS(normalTS(400 + i))
		if i%2 == 0 {
			vs.TSs = append(vs.TSs, normalTS(500+i))
		}
		vss = append(vss, vs)
	}
	annotateKinematics(vss)
	rec := &videodb.ClipRecord{
		Name:      DemoClip,
		Frames:    idx * 15,
		FPS:       25,
		Width:     320,
		Height:    240,
		ModelName: "accident",
		Window:    window.Config{SampleRate: 5, WindowSize: 3},
		VSs:       vss,
		Incidents: incidents,
		Meta:      map[string]string{"source": "synthetic"},
	}
	if err := rec.Validate(); err != nil {
		return nil, fmt.Errorf("server: synthetic record invalid: %w", err)
	}
	return rec, nil
}

// annotateKinematics stamps every demo TS with raw samples (position,
// motion, blob area) and a vehicle class, keyed by its track-ID band —
// the spatio-temporal side of the catalog that predicate queries
// evaluate. Everything here is a pure function of the track ID and
// window geometry: no rng is consumed, so the feature vectors above
// (and every ranking gate calibrated on them) are byte-identical to
// the pre-kinematics catalog. The staged scene, on a 320×240 frame
// whose center region is x,y ∈ [0.25, 0.75]:
//
//   - 100s (accident): a car brakes from 9 px/f to a standstill at
//     the region center — the "suddenly stops" motion.
//   - 600s (witness): a second car arrives eastbound through the
//     region right after the stop — together they satisfy
//     seq(stop∧region, go∧east∧region, within 5s).
//   - 300s (distractor): a car decelerates 9 → 2.2 px/f inside the
//     region but never stops — near-miss kinematics that must not
//     match a stop predicate, mirroring its deceleration-only
//     feature spike.
//   - 200s/400s (normal): cars cruising eastbound at 5 px/f along the
//     south edge, outside the region.
//   - 500s (normal): a truck (larger blob) heading south along the
//     east edge.
func annotateKinematics(vss []window.VS) {
	// kin builds window-length samples from a position series: two
	// pre-window positions supply the motion history (the tracks all
	// predate their windows, so PrevValid holds throughout — exactly
	// what Extract produces for an old track).
	kin := func(startFrame int, area float64, pos ...geom.Point) []event.Sample {
		out := make([]event.Sample, 0, len(pos)-2)
		for i := 2; i < len(pos); i++ {
			out = append(out, event.Sample{
				Frame:       startFrame + (i-2)*5,
				Pos:         pos[i],
				Motion:      pos[i].Sub(pos[i-1]),
				MotionValid: true,
				PrevMotion:  pos[i-1].Sub(pos[i-2]),
				PrevValid:   true,
				MinDist:     math.Inf(1),
				Area:        area,
			})
		}
		return out
	}
	p := func(x, y float64) geom.Point { return geom.Point{X: x, Y: y} }
	for vi := range vss {
		vs := &vss[vi]
		for ti := range vs.TSs {
			ts := &vs.TSs[ti]
			y := 120 + float64(ts.TrackID%3) // lane jitter, still mid-region
			switch {
			case ts.TrackID >= 100 && ts.TrackID < 200:
				ts.Class = "car"
				ts.Samples = kin(vs.StartFrame, 60,
					p(114.5, y), p(159.5, y), p(160, y), p(160.5, y), p(160.8, y))
			case ts.TrackID >= 600 && ts.TrackID < 700:
				ts.Class = "car"
				ts.Samples = kin(vs.StartFrame, 60,
					p(-50, y+6), p(-5, y+6), p(40, y+6), p(85, y+6), p(130, y+6))
			case ts.TrackID >= 300 && ts.TrackID < 400:
				ts.Class = "car"
				ts.Samples = kin(vs.StartFrame, 60,
					p(10, y), p(55, y), p(100, y), p(122, y), p(133, y))
			case ts.TrackID >= 500 && ts.TrackID < 600:
				ts.Class = "truck"
				ts.Samples = kin(vs.StartFrame, 160,
					p(300, 10), p(300, 35), p(300, 60), p(300, 85), p(300, 110))
			default: // 200s and 400s: eastbound cruisers on the south edge
				ts.Class = "car"
				ts.Samples = kin(vs.StartFrame, 60,
					p(-30, 210), p(-5, 210), p(20, 210), p(45, 210), p(70, 210))
			}
		}
	}
}

// ScaledDemoRecord builds the demo catalog at an integer multiple of
// its base mix (6 relevant, 6 distractor, 36 normal VSs per unit) —
// the 10× and 100× catalogs the index benchmarks and load generator
// exercise. Scale 1 is exactly the demo record.
func ScaledDemoRecord(seed int64, scale int) (*videodb.ClipRecord, error) {
	if scale < 1 {
		scale = 1
	}
	return SynthRecord(seed, 6*scale, 6*scale, 36*scale)
}
