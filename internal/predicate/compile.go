package predicate

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"milvideo/internal/event"
	"milvideo/internal/geom"
	"milvideo/internal/mil"
	"milvideo/internal/query"
	"milvideo/internal/videodb"
	"milvideo/internal/window"
)

// Env is the evaluation environment an AST compiles against: the
// catalog's sampling geometry (for converting seconds to grid steps
// and pixels to normalized coordinates) and the event model a sketch
// leaf features under.
type Env struct {
	// SampleRate is the sampling interval in frames per point (0 = 5,
	// the paper's).
	SampleRate int
	// WindowSize is the number of sampling points per VS (0 = 3).
	WindowSize int
	// FPS is the clip frame rate (0 = 25).
	FPS float64
	// Width and Height are the frame dimensions in pixels; 0 = the
	// simulator's 320×240.
	Width, Height int
	// Model features sketch leaves; nil = the accident model.
	Model event.Model
}

func (e Env) normalized() Env {
	if e.SampleRate <= 0 {
		e.SampleRate = 5
	}
	if e.WindowSize <= 0 {
		e.WindowSize = 3
	}
	if e.FPS <= 0 {
		e.FPS = 25
	}
	if e.Width <= 0 {
		e.Width = 320
	}
	if e.Height <= 0 {
		e.Height = 240
	}
	if e.Model == nil {
		e.Model = event.AccidentModel{}
	}
	return e
}

// RecordEnv derives the evaluation environment from a persisted clip
// record: its window configuration, frame rate, dimensions and event
// model. Zero dimensions (records persisted before the fields
// existed) fall back to the simulator's 320×240.
func RecordEnv(rec *videodb.ClipRecord) (Env, error) {
	if rec == nil {
		return Env{}, fmt.Errorf("predicate: nil record")
	}
	model, err := event.ModelByName(rec.ModelName)
	if err != nil {
		return Env{}, fmt.Errorf("predicate: %w", err)
	}
	return Env{
		SampleRate: rec.Window.SampleRate,
		WindowSize: rec.Window.WindowSize,
		FPS:        rec.FPS,
		Width:      rec.Width,
		Height:     rec.Height,
		Model:      model,
	}.normalized(), nil
}

// Calibration constants of the kinematic leaves, in pixels per frame
// on the sampling grid (the simulator's vehicles cruise at ~1–2 px/f).
const (
	// vStop is the speed at which a vehicle counts as fully stopped.
	vStop = 0.8
	// vGo is the speed at which a vehicle counts as fully moving.
	vGo = 1.5
	// vHeading is the minimum speed below which a heading is
	// meaningless noise.
	vHeading = 0.3
	// regionMargin is the soft falloff outside a region, in normalized
	// frame units.
	regionMargin = 0.05
	// defaultTolerance is the direction falloff width in degrees.
	defaultTolerance = 45
	// defaultMinTurn is the full-credit turn angle in degrees.
	defaultMinTurn = 45
)

// tsFn scores one TS as a truth curve of length w (one value per
// sampling point; indexes past the TS's own samples score 0).
type tsFn func(ts *window.TS, w int) ([]float64, error)

// vsFn scores one VS as a truth curve of length w.
type vsFn func(vs *window.VS, w int) ([]float64, error)

// compiled is one compiled AST node. Temporal-free nodes carry a tsFn
// (per-vehicle, so conjunctions bind leaves to the same TS); every
// node carries a vsFn (for temporal-free nodes, the pointwise max
// over the bag's TSs — "some vehicle satisfies it").
type compiled struct {
	ts tsFn // nil when the subtree contains a temporal relation
	vs vsFn
}

// Engine is a compiled predicate usable as a retrieval engine: it
// ranks the database by predicate truth and plugs into
// query.WithFeedback / Combined like any other initial query. It also
// implements retrieval.ProbeSeeder so the candidate index can
// accelerate predicate sessions before any feedback exists.
type Engine struct {
	node *Node
	env  Env
	root compiled
}

// Compile validates the AST and compiles it against the environment.
// All parameter resolution (defaults, unit conversions, the sketch
// leaf's feature extraction) happens here, once; scoring is pure
// arithmetic over the compiled closures.
func Compile(n *Node, env Env) (*Engine, error) {
	if n == nil {
		return nil, fmt.Errorf("%w: nil node", ErrBadAST)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	env = env.normalized()
	root, err := compile(n, env)
	if err != nil {
		return nil, err
	}
	return &Engine{node: n, env: env, root: root}, nil
}

// Name implements retrieval.Engine.
func (e *Engine) Name() string { return "predicate:" + e.node.Summary() }

// Node returns the compiled AST.
func (e *Engine) Node() *Node { return e.node }

// Scores evaluates the predicate over the database: one truth value
// in [0, 1] per VS (the max over the VS's truth curve). Identical
// inputs yield byte-identical score vectors — evaluation is
// sequential and every combinator is an exactly associative and
// commutative float operation (min/max/1−x).
func (e *Engine) Scores(db []window.VS) ([]float64, error) {
	scores := make([]float64, len(db))
	for i := range db {
		vs := &db[i]
		w := curveLen(vs, e.env)
		curve, err := e.root.vs(vs, w)
		if err != nil {
			return nil, fmt.Errorf("predicate: VS %d: %w", vs.Index, err)
		}
		scores[i] = maxOf(curve)
	}
	return scores, nil
}

// Rank implements retrieval.Engine: stable descending order of
// predicate truth. Labels are ignored — a predicate is a stateless
// initial ranking; wrap with query.WithFeedback for the interactive
// loop.
func (e *Engine) Rank(db []window.VS, _ map[int]mil.Label) ([]int, error) {
	scores, err := e.Scores(db)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(db))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return idx, nil
}

// SeedProbes implements retrieval.ProbeSeeder: before any positive
// feedback exists, the instance vectors of the highest-scoring bags
// stand in for positive-labeled instances as index probes, letting
// the pruned engine prune predicate sessions from round 0. Bags
// scoring under half the best score contribute nothing; a predicate
// that matches nothing seeds nothing (the wrapper then ranks the full
// database, which is the correct fallback).
func (e *Engine) SeedProbes(db []window.VS) [][]float64 {
	const (
		maxSeedVSs = 4
		maxProbes  = 16
	)
	scores, err := e.Scores(db)
	if err != nil {
		return nil
	}
	best := maxOf(scores)
	if best <= 0 {
		return nil
	}
	order := make([]int, len(db))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
	var probes [][]float64
	used := 0
	for _, i := range order {
		if used >= maxSeedVSs || scores[i] < 0.5*best || len(probes) >= maxProbes {
			break
		}
		added := false
		for _, ts := range db[i].TSs {
			if len(probes) >= maxProbes {
				break
			}
			if flat := ts.Flat(); len(flat) > 0 {
				probes = append(probes, flat)
				added = true
			}
		}
		if added {
			used++
		}
	}
	return probes
}

// curveLen is the sampling-grid length of a VS's truth curves: the
// longest TS (samples or vectors), falling back to the window size
// for empty bags so temporal operators still see a well-formed curve.
func curveLen(vs *window.VS, env Env) int {
	w := 0
	for i := range vs.TSs {
		if n := len(vs.TSs[i].Samples); n > w {
			w = n
		}
		if n := len(vs.TSs[i].Vectors); n > w {
			w = n
		}
	}
	if w == 0 {
		w = env.WindowSize
	}
	return w
}

func compile(n *Node, env Env) (compiled, error) {
	switch n.Op {
	case OpAnd, OpOr:
		kids := make([]compiled, len(n.Args))
		temporal := false
		for i, a := range n.Args {
			k, err := compile(a, env)
			if err != nil {
				return compiled{}, err
			}
			kids[i] = k
			if k.ts == nil {
				temporal = true
			}
		}
		pick := math.Min // and
		if n.Op == OpOr {
			pick = math.Max
		}
		if !temporal {
			// Same-vehicle semantics: combine per TS, then lift.
			fn := func(ts *window.TS, w int) ([]float64, error) {
				return combineCurves(kids, w, pick, func(k compiled) ([]float64, error) { return k.ts(ts, w) })
			}
			return liftTS(fn), nil
		}
		// A temporal operand has no per-vehicle meaning; combine the
		// operands' VS-level curves pointwise instead.
		return compiled{vs: func(vs *window.VS, w int) ([]float64, error) {
			return combineCurves(kids, w, pick, func(k compiled) ([]float64, error) { return k.vs(vs, w) })
		}}, nil
	case OpNot:
		// Double-negation elimination: 1−(1−x) is not an identity in
		// floating point, but compiling not(not(p)) as p is — the
		// algebraic law holds bit-exactly by construction.
		if n.Arg.Op == OpNot {
			return compile(n.Arg.Arg, env)
		}
		k, err := compile(n.Arg, env)
		if err != nil {
			return compiled{}, err
		}
		if k.ts != nil {
			fn := func(ts *window.TS, w int) ([]float64, error) {
				c, err := k.ts(ts, w)
				if err != nil {
					return nil, err
				}
				for i := range c {
					c[i] = 1 - c[i]
				}
				return c, nil
			}
			return liftTS(fn), nil
		}
		return compiled{vs: func(vs *window.VS, w int) ([]float64, error) {
			c, err := k.vs(vs, w)
			if err != nil {
				return nil, err
			}
			for i := range c {
				c[i] = 1 - c[i]
			}
			return c, nil
		}}, nil
	case OpSeq, OpDuring, OpOverlap:
		a, err := compile(n.A, env)
		if err != nil {
			return compiled{}, err
		}
		b, err := compile(n.B, env)
		if err != nil {
			return compiled{}, err
		}
		// Maximum gap between the two events in sampling-grid steps.
		maxGap := 0
		if n.Op == OpSeq {
			maxGap = int(n.Within * env.FPS / float64(env.SampleRate))
			if maxGap < 1 {
				maxGap = 1
			}
		}
		op := n.Op
		return compiled{vs: func(vs *window.VS, w int) ([]float64, error) {
			ca, err := a.vs(vs, w)
			if err != nil {
				return nil, err
			}
			cb, err := b.vs(vs, w)
			if err != nil {
				return nil, err
			}
			var v float64
			switch op {
			case OpSeq:
				// A strictly before B, within the gap: the "a vehicle
				// stops, then another arrives" relation. A and B are
				// VS-level, so different vehicles may realize them.
				for ta := 0; ta < w; ta++ {
					for tb := ta + 1; tb < w && tb-ta <= maxGap; tb++ {
						if s := math.Min(ca[ta], cb[tb]); s > v {
							v = s
						}
					}
				}
			case OpOverlap:
				for t := 0; t < w; t++ {
					if s := math.Min(ca[t], cb[t]); s > v {
						v = s
					}
				}
			case OpDuring:
				// A peaks at some point while B holds throughout.
				bFloor := 1.0
				for t := 0; t < w; t++ {
					if cb[t] < bFloor {
						bFloor = cb[t]
					}
				}
				v = math.Min(maxOf(ca), bFloor)
			}
			// Temporal relations collapse time; broadcast the scalar so
			// enclosing combinators still see a curve.
			c := make([]float64, w)
			for i := range c {
				c[i] = v
			}
			return c, nil
		}}, nil
	default:
		return compileLeaf(n, env)
	}
}

// combineCurves evaluates every child curve and folds them pointwise
// with pick (min for and, max for or).
func combineCurves(kids []compiled, w int, pick func(a, b float64) float64, eval func(compiled) ([]float64, error)) ([]float64, error) {
	var out []float64
	for _, k := range kids {
		c, err := eval(k)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = c
			continue
		}
		for i := range out {
			out[i] = pick(out[i], c[i])
		}
	}
	return out, nil
}

// liftTS turns a per-TS scorer into a node scoring both levels: the
// VS curve is the pointwise max over the bag's TSs ("some vehicle
// satisfies it at t"), zeros for an empty bag.
func liftTS(fn tsFn) compiled {
	return compiled{
		ts: fn,
		vs: func(vs *window.VS, w int) ([]float64, error) {
			out := make([]float64, w)
			for i := range vs.TSs {
				c, err := fn(&vs.TSs[i], w)
				if err != nil {
					return nil, err
				}
				for t := range out {
					if c[t] > out[t] {
						out[t] = c[t]
					}
				}
			}
			return out, nil
		},
	}
}

// perSample builds a tsFn from a per-sample scorer; points past the
// TS's observed samples score 0 (the vehicle was not there).
func perSample(score func(s *event.Sample) float64) tsFn {
	return func(ts *window.TS, w int) ([]float64, error) {
		out := make([]float64, w)
		for t := 0; t < w && t < len(ts.Samples); t++ {
			out[t] = score(&ts.Samples[t])
		}
		return out, nil
	}
}

// constant builds a tsFn whose truth is a per-TS attribute, constant
// over the window.
func constant(score func(ts *window.TS) float64) tsFn {
	return func(ts *window.TS, w int) ([]float64, error) {
		v := score(ts)
		out := make([]float64, w)
		for i := range out {
			out[i] = v
		}
		return out, nil
	}
}

// band scores a value against a [lo, hi] band with a trapezoid
// falloff of width margin on each side; hi ≤ 0 means unbounded above.
func band(v, lo, hi, margin float64) float64 {
	if v < lo {
		return clamp01(1 - (lo-v)/margin)
	}
	if hi > 0 && v > hi {
		return clamp01(1 - (v-hi)/margin)
	}
	return 1
}

// bandMargin derives a falloff width from the band's own span,
// clamped so degenerate bands still have a usable soft edge.
func bandMargin(lo, hi, minM, maxM float64) float64 {
	span := hi - lo
	if hi <= 0 {
		span = lo
	}
	m := 0.25 * span
	if m < minM {
		m = minM
	}
	if m > maxM {
		m = maxM
	}
	return m
}

func compileLeaf(n *Node, env Env) (compiled, error) {
	rate := env.SampleRate
	switch n.Op {
	case OpStop:
		// Fully stopped now, and demonstrably moving before — a parked
		// car never "stops". The previous speed is read from PrevMotion
		// directly (not VDiff) so deceleration to standstill scores
		// even when the drop spans one sampling interval.
		return liftTS(perSample(func(s *event.Sample) float64 {
			if !s.PrevValid {
				return 0
			}
			slow := clamp01(1 - s.Speed(rate)/vStop)
			wasMoving := clamp01(s.PrevMotion.Norm() / float64(rate) / vGo)
			return math.Min(slow, wasMoving)
		})), nil
	case OpGo:
		return liftTS(perSample(func(s *event.Sample) float64 {
			return clamp01(s.Speed(rate) / vGo)
		})), nil
	case OpDirection:
		tol := n.Tolerance
		if tol <= 0 {
			tol = defaultTolerance
		}
		tolRad := tol * math.Pi / 180
		h := *n.Heading * math.Pi / 180
		// Raster coordinates: +x east, +y south, so 90° is "downward"
		// on screen — consistent with sketch and region coordinates.
		heading := geom.Vec{X: math.Cos(h), Y: math.Sin(h)}
		return liftTS(perSample(func(s *event.Sample) float64 {
			if s.Speed(rate) < vHeading {
				return 0
			}
			return clamp01(1 - s.Motion.AngleBetween(heading)/tolRad)
		})), nil
	case OpSpeed:
		margin := bandMargin(n.MinSpeed, n.MaxSpeed, 0.25, 2)
		lo, hi := n.MinSpeed, n.MaxSpeed
		return liftTS(perSample(func(s *event.Sample) float64 {
			return band(s.Speed(rate), lo, hi, margin)
		})), nil
	case OpTurn:
		minTurn := n.MinTurn
		if minTurn <= 0 {
			minTurn = defaultMinTurn
		}
		minRad := minTurn * math.Pi / 180
		return liftTS(perSample(func(s *event.Sample) float64 {
			if !s.PrevValid {
				return 0
			}
			return clamp01(s.Theta() / minRad)
		})), nil
	case OpRegion:
		w, h := float64(env.Width), float64(env.Height)
		if len(n.Rect) == 4 {
			r := geom.Rect{
				Min: geom.Point{X: n.Rect[0], Y: n.Rect[1]},
				Max: geom.Point{X: n.Rect[2], Y: n.Rect[3]},
			}
			return liftTS(perSample(func(s *event.Sample) float64 {
				x, y := s.Pos.X/w, s.Pos.Y/h
				if r.Contains(geom.Point{X: x, Y: y}) {
					return 1
				}
				return clamp01(1 - rectDist(x, y, r)/regionMargin)
			})), nil
		}
		poly := n.Polygon
		return liftTS(perSample(func(s *event.Sample) float64 {
			if inPolygon(s.Pos.X/w, s.Pos.Y/h, poly) {
				return 1
			}
			return 0
		})), nil
	case OpClass:
		want := n.Class
		return liftTS(constant(func(ts *window.TS) float64 {
			if strings.EqualFold(ts.Class, want) {
				return 1
			}
			return 0
		})), nil
	case OpSize:
		margin := bandMargin(n.MinArea, n.MaxArea, 8, math.Inf(1))
		lo, hi := n.MinArea, n.MaxArea
		return liftTS(constant(func(ts *window.TS) float64 {
			sum, cnt := 0.0, 0
			for i := range ts.Samples {
				if ts.Samples[i].Area > 0 {
					sum += ts.Samples[i].Area
					cnt++
				}
			}
			if cnt == 0 {
				return 0
			}
			return band(sum/float64(cnt), lo, hi, margin)
		})), nil
	case OpSketch:
		pts := make([]geom.Point, len(n.Points))
		for i, p := range n.Points {
			pts[i] = geom.Point{X: p[0], Y: p[1]}
		}
		cfg := window.Config{SampleRate: env.SampleRate, WindowSize: env.WindowSize}
		ex, err := query.BySketch(query.Sketch{Points: pts, FramesPerSegment: n.FramesPerSegment}, env.Model, cfg)
		if err != nil {
			return compiled{}, fmt.Errorf("%w: sketch: %v", ErrBadAST, err)
		}
		sigma := ex.Sigma
		if sigma <= 0 {
			sigma = query.AutoSigma(ex.Example)
		}
		// A sketch's truth is trajectory-shaped, not instantaneous:
		// one similarity per TS, constant over the window. This is the
		// only leaf that can fail at scoring time (feature-dimension
		// mismatch between sketch model and catalog).
		return liftTS(func(ts *window.TS, w int) ([]float64, error) {
			out := make([]float64, w)
			if len(ts.Vectors) == 0 {
				return out, nil
			}
			s, err := query.Similarity(ex.Example, ts.Vectors, sigma)
			if err != nil {
				return nil, err
			}
			for i := range out {
				out[i] = s
			}
			return out, nil
		}), nil
	default:
		return compiled{}, fmt.Errorf("%w: %q", ErrUnknownOp, n.Op)
	}
}

// rectDist is the Euclidean distance from a point to a rect's
// boundary (0 inside), in the same normalized units.
func rectDist(x, y float64, r geom.Rect) float64 {
	dx := math.Max(math.Max(r.Min.X-x, 0), x-r.Max.X)
	dy := math.Max(math.Max(r.Min.Y-y, 0), y-r.Max.Y)
	return math.Hypot(dx, dy)
}

// inPolygon tests even-odd containment.
func inPolygon(x, y float64, poly [][2]float64) bool {
	in := false
	for i, j := 0, len(poly)-1; i < len(poly); j, i = i, i+1 {
		xi, yi := poly[i][0], poly[i][1]
		xj, yj := poly[j][0], poly[j][1]
		if (yi > y) != (yj > y) && x < (xj-xi)*(y-yi)/(yj-yi)+xi {
			in = !in
		}
	}
	return in
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func maxOf(c []float64) float64 {
	v := 0.0
	for _, x := range c {
		if x > v {
			v = x
		}
	}
	return v
}
