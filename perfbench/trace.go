package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	"milvideo/internal/core"
	"milvideo/internal/index"
	"milvideo/internal/mil"
	"milvideo/internal/predicate"
	"milvideo/internal/query"
	"milvideo/internal/render"
	"milvideo/internal/retrieval"
	"milvideo/internal/segment"
	"milvideo/internal/server"
	"milvideo/internal/sim"
	"milvideo/internal/track"
	"milvideo/internal/window"
)

// span is one timed call into a layer's public entry point.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
	// Unit names the session ("session 3") or segment ("segment 5")
	// the span belongs to.
	Unit string `json:"unit"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory from one goroutine. A disabled tracer
// records nothing and reads no clock.
type tracer struct {
	on    bool
	t0    time.Time
	unit  string
	spans []span
	open  []int // indices into spans of the open spans, innermost last
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Unit: t.unit,
		Start: int64(time.Since(t.t0)),
	})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns it.
func (t *tracer) end() span {
	if !t.on {
		return span{}
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(time.Since(t.t0))
	return t.spans[i]
}

// sum totals the durations of the named spans under root (inclusive
// of root itself when it carries the name).
func (t *tracer) sum(root span, name string) time.Duration {
	if !t.on {
		return 0
	}
	var d time.Duration
	for _, s := range t.spans[root.ID-1:] {
		if s.Start > root.End {
			break
		}
		if s.Name == name && s.Start >= root.Start && s.End <= root.End {
			d += s.dur()
		}
	}
	return d
}

// leafCoverage is the share of root's duration spent under leaf spans
// (spans with no children), i.e. attributed to a named layer call.
func (t *tracer) leafCoverage(root span) float64 {
	if !t.on {
		return 0
	}
	hasChild := map[int]bool{}
	var in []span
	for _, s := range t.spans[root.ID-1:] {
		if s.Start > root.End {
			break
		}
		if s.ID != root.ID && s.Start >= root.Start && s.End <= root.End {
			in = append(in, s)
			hasChild[s.Parent] = true
		}
	}
	var leaf time.Duration
	for _, s := range in {
		if !hasChild[s.ID] {
			leaf += s.dur()
		}
	}
	if root.dur() <= 0 {
		return 0
	}
	return float64(leaf) / float64(root.dur())
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanEngine times every Rank of the engine it wraps. It forwards
// retrieval.ProbeSeeder, so a wrapped predicate keeps seeding probes.
type spanEngine struct {
	retrieval.Engine
	tr   *tracer
	name string
}

// Rank implements retrieval.Engine.
func (e spanEngine) Rank(db []window.VS, labels map[int]mil.Label) ([]int, error) {
	e.tr.begin(e.name)
	defer e.tr.end()
	return e.Engine.Rank(db, labels)
}

// SeedProbes implements retrieval.ProbeSeeder.
func (e spanEngine) SeedProbes(db []window.VS) [][]float64 {
	if s, ok := e.Engine.(retrieval.ProbeSeeder); ok {
		return s.SeedProbes(db)
	}
	return nil
}

// spanCandidate is retrieval.CandidateEngine's Rank, rebuilt from the
// public BagIndex.Candidates and retrieval.RerankUnion so the probe and
// the exact re-rank get spans of their own. Its rankings are checked
// against the served ones.
type spanCandidate struct {
	tr    *tracer
	inner retrieval.Engine
	bi    *index.BagIndex
	c     int
}

// Name implements retrieval.Engine.
func (e *spanCandidate) Name() string { return "traced-candidate/" + e.inner.Name() }

// Rank implements retrieval.Engine.
func (e *spanCandidate) Rank(db []window.VS, labels map[int]mil.Label) ([]int, error) {
	if e.c <= 0 || e.c >= len(db) {
		return e.inner.Rank(db, labels)
	}
	var probes [][]float64
	for _, vs := range db {
		if labels[vs.Index] != mil.Positive {
			continue
		}
		for _, ts := range vs.TSs {
			probes = append(probes, ts.Flat())
		}
	}
	if len(probes) == 0 {
		if seeder, ok := e.inner.(retrieval.ProbeSeeder); ok {
			probes = seeder.SeedProbes(db)
		}
	}
	if len(probes) == 0 {
		return e.inner.Rank(db, labels)
	}
	e.tr.begin("index.probe")
	cands, _ := e.bi.Candidates(probes, e.c)
	e.tr.end()
	out, _, err := retrieval.RerankUnion(e.inner, db, labels, cands)
	return out, err
}

// layerInputs is what the timed run hands the traced replay.
type layerInputs struct {
	sp      spec
	e       *env
	fc      *feedbackClient
	samples []sample
	gen     *generator
	roundMs []float64
	staleMs []float64
	admitMs []float64
	segs    int
	// before and after are the server's counters around the window.
	before, after *server.StatsResponse
}

// replayRound is one replayed round's measurements.
type replayRound struct {
	r                                                           int
	milMs, probeMs, roundMs, selfMs, snapMs, compileMs, scoreMs float64
	hits, misses                                                uint64
	coverage                                                    float64
}

// replaySession re-drives scheduled session s in-process through the
// layers' public entry points, one span per call. For the ground-truth
// workloads each round's ranking must hash to the served one; a
// mismatch goes to mismatch, when it is not nil, and the replay goes on.
func replaySession(ctx context.Context, tr *tracer, li *layerInputs, bi *index.BagIndex, s int, mismatch func(error)) ([]replayRound, error) {
	sp, e := li.sp, li.e
	tr.unit = fmt.Sprintf("session %d", s)
	snap := e.db.Snapshot()
	rec, err := snap.Clip(e.clip)
	if err != nil {
		return nil, err
	}
	cache := retrieval.NewMILCache()
	base, err := core.EngineByName("", cache)
	if err != nil {
		return nil, err
	}
	learner := spanEngine{Engine: base, tr: tr, name: "mil.rank"}
	var eng retrieval.Engine = learner
	labels := map[int]mil.Label{}
	var out []replayRound
	for r := 0; r < rounds; r++ {
		var rr replayRound
		rr.r = r
		tr.begin("replay.round")
		if sp.live() {
			tr.begin("videodb.snapshot")
			snap := e.db.Snapshot()
			rec, err = snap.Clip(e.clip)
			rr.snapMs = ms(tr.end().dur())
			if err != nil {
				tr.end()
				return nil, err
			}
		}
		if r == 0 && li.fc.sched[s].Predicate {
			tr.begin("predicate.compile")
			env, err := predicate.RecordEnv(rec)
			var pe *predicate.Engine
			if err == nil {
				pe, err = predicate.Compile(server.DemoPredicates()[0], env)
			}
			rr.compileMs = ms(tr.end().dur())
			if err != nil {
				tr.end()
				return nil, err
			}
			eng = query.WithFeedback{Initial: spanEngine{Engine: pe, tr: tr, name: "predicate.score"}, Learner: learner}
		}
		ranker := eng
		if bi != nil {
			ranker = &spanCandidate{tr: tr, inner: eng, bi: bi, c: sp.candidates}
		}
		tr.begin("retrieval.round")
		ranking, top, err := retrieval.RankRoundCtx(ctx, ranker, rec.VSs, labels, topK)
		roundSpan := tr.end()
		root := tr.end()
		if err != nil {
			return nil, err
		}
		h, m := cache.Stats()
		cache.ResetStats()
		rr.hits, rr.misses = h, m
		rr.roundMs = ms(roundSpan.dur())
		rr.milMs = ms(tr.sum(roundSpan, "mil.rank"))
		rr.scoreMs = ms(tr.sum(roundSpan, "predicate.score"))
		rr.probeMs = ms(tr.sum(roundSpan, "index.probe"))
		rr.selfMs = rr.roundMs - rr.milMs - rr.scoreMs - rr.probeMs
		rr.coverage = tr.leafCoverage(root)
		out = append(out, rr)

		indices := make([]int, len(ranking))
		for k, pos := range ranking {
			indices[k] = rec.VSs[pos].Index
		}
		if st := &li.fc.sess[s]; mismatch != nil && !sp.live() && r < st.served && hashRanking(indices) != st.hashes[r] {
			mismatch(fmt.Errorf("session %d round %d: traced replay ranking differs from the served one", s, r))
		}
		for _, pos := range top {
			vs := rec.VSs[pos]
			en := server.RankingEntry{VS: vs.Index, StartFrame: vs.StartFrame, EndFrame: vs.EndFrame, TSCount: len(vs.TSs)}
			if li.fc.judge(en) {
				labels[vs.Index] = mil.Positive
			} else {
				labels[vs.Index] = mil.Negative
			}
		}
	}
	return out, nil
}

// segmentTimes are one replayed segment's measurements.
type segmentTimes struct {
	streamMs, renderMs, bgMs, spcpeMs, trackMs, windowMs float64
	frames                                               int
	coverage                                             float64
}

// replaySegment runs one scene through core.ProcessSceneStream, then
// serially through each stage's public entry point, and requires the
// two to produce the same windows: a difference goes to mismatch, when
// it is not nil.
func replaySegment(tr *tracer, scene *sim.Scene, n int, mismatch func(error)) (segmentTimes, error) {
	var st segmentTimes
	cfg := livePipeline()
	tr.unit = fmt.Sprintf("segment %d", n)
	tr.begin("core.segment")
	clip, err := core.ProcessSceneStream(scene, cfg)
	st.streamMs = ms(tr.end().dur())
	if err != nil {
		return st, err
	}
	want := clip.VSs
	clip.Video.Recycle()

	tr.begin("core.serial")
	tr.begin("render.video")
	v, err := render.Video(scene, cfg.Render)
	st.renderMs = ms(tr.end().dur())
	if err != nil {
		tr.end()
		return st, err
	}
	st.frames = v.Len()
	tr.begin("segment.background")
	ex, err := segment.NewExtractor(v, cfg.Segment)
	st.bgMs = ms(tr.end().dur())
	if err != nil {
		tr.end()
		return st, err
	}
	tk := track.NewTracker(cfg.Track)
	for i, f := range v.Frames {
		tr.begin("segment.spcpe")
		segs, err := ex.Segments(f)
		st.spcpeMs += ms(tr.end().dur())
		if err != nil {
			tr.end()
			return st, err
		}
		tr.begin("track.update")
		err = tk.Update(i, segs)
		st.trackMs += ms(tr.end().dur())
		if err != nil {
			tr.end()
			return st, err
		}
	}
	tr.begin("track.flush")
	tracks := tk.Flush()
	st.trackMs += ms(tr.end().dur())
	tr.begin("window.extract")
	vss, err := window.Extract(tracks, cfg.Model, v.Len(), cfg.Window)
	st.windowMs = ms(tr.end().dur())
	root := tr.end()
	v.Recycle()
	if err != nil {
		return st, err
	}
	st.coverage = tr.leafCoverage(root)
	if mismatch != nil && !reflect.DeepEqual(vss, want) {
		mismatch(fmt.Errorf("segment %d: serial stage replay differs from ProcessSceneStream", n))
	}
	return st, nil
}

// traceLayers runs the traced replay and assembles the per-layer table.
// A replay that disagrees with the served run is a failed output check,
// recorded in res; an error means the replay could not run.
func traceLayers(ctx context.Context, li *layerInputs, res *result) ([]layerRow, []span, error) {
	sp, e := li.sp, li.e
	v := map[string]float64{}
	tr := newTracer(true)
	failed := res.Failed

	// Harness validity.
	var late []float64
	for _, s := range li.samples {
		late = append(late, ms(s.Late()))
	}
	v["loadgen.late_p90_ms"] = percentile(late, 0.9)
	v["loadgen.inflight_max"] = float64(li.gen.maxInflight.Load())
	v["round_p90_ms"] = percentile(li.roundMs, 0.9)

	// Response encoding, on the recorded final responses.
	var encMs, kb []float64
	for s := range li.fc.sess {
		if last := li.fc.sess[s].last; last != nil {
			t0 := time.Now()
			blob, err := json.Marshal(last)
			encMs = append(encMs, ms(time.Since(t0)))
			if err != nil {
				return nil, nil, err
			}
			kb = append(kb, float64(len(blob))/1024)
		}
	}
	v["server.encode_ms"] = median(encMs)
	v["server.response_kb"] = median(kb)

	// Index counters from the served window.
	if a, b := li.after.Index, li.before.Index; a.PrunedRounds > b.PrunedRounds {
		pruned := float64(a.PrunedRounds - b.PrunedRounds)
		full := float64(a.FullRounds - b.FullRounds)
		v["retrieval.union_bags"] = float64(a.CandidatesRanked-b.CandidatesRanked) / pruned
		v["retrieval.pruned_frac"] = pruned / (pruned + full)
		v["index.dist_evals"] = float64(a.DistEvals-b.DistEvals) / pruned
		v["index.probes"] = float64(a.Probes-b.Probes) / pruned
	}

	// The index the traced sessions probe: built once, as the server
	// does on a session's first query.
	db := func() ([]window.VS, error) {
		rec, err := e.db.Snapshot().Clip(e.clip)
		if err != nil {
			return nil, err
		}
		return rec.VSs, nil
	}
	var bi *index.BagIndex
	if sp.index != "" {
		vss, err := db()
		if err != nil {
			return nil, nil, err
		}
		kind, err := index.ParseKind(sp.index)
		if err != nil {
			return nil, nil, err
		}
		qk, err := index.ParseQuantKind(sp.quant)
		if err != nil {
			return nil, nil, err
		}
		tr.unit = "index"
		tr.begin("index.build")
		bi, err = index.Build(vss, kind, index.Options{Quant: qk})
		v["index.build_s"] = tr.end().dur().Seconds()
		if err != nil {
			return nil, nil, err
		}
		if m := bi.Memory(); bi.Bags() > 0 {
			v["index.bytes_per_vs"] = float64(m.PointBytes+m.CodebookBytes) / float64(bi.Bags())
		}
	}

	// Traced sessions, in schedule order, within the replay budget.
	var all []replayRound
	deadline := time.Now().Add(sp.replayBudget / 2)
	for s := range li.fc.sched {
		if s > 0 && time.Now().After(deadline) {
			break
		}
		rs, err := replaySession(ctx, tr, li, bi, s, res.fail)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, rs...)
	}
	var roundMs, selfMs, probeMs, milMs, snapMs, compileMs, scoreMs, cover []float64
	var hits, misses uint64
	for _, rr := range all {
		cover = append(cover, rr.coverage)
		if rr.snapMs > 0 {
			snapMs = append(snapMs, rr.snapMs)
		}
		if rr.r == 0 {
			if rr.compileMs > 0 {
				compileMs = append(compileMs, rr.compileMs)
				scoreMs = append(scoreMs, rr.scoreMs)
			}
			continue
		}
		roundMs = append(roundMs, rr.roundMs)
		selfMs = append(selfMs, rr.selfMs)
		probeMs = append(probeMs, rr.probeMs)
		milMs = append(milMs, rr.milMs)
		if rr.r >= 2 {
			hits += rr.hits
			misses += rr.misses
		}
	}
	v["retrieval.round_ms"] = median(roundMs)
	v["retrieval.self_ms"] = median(selfMs)
	v["index.probe_ms"] = median(probeMs)
	v["mil.rank_ms"] = median(milMs)
	v["videodb.snapshot_ms"] = median(snapMs)
	v["predicate.compile_ms"] = median(compileMs)
	v["predicate.score_ms"] = median(scoreMs)
	v["server.overhead_ms"] = median(li.roundMs) - v["retrieval.round_ms"]
	if hits+misses > 0 {
		v["kernel.cache_hit_frac"] = float64(hits) / float64(hits+misses)
	}

	replayedSegs := 0
	if sp.live() {
		n, err := liveLayers(tr, li, res, v, &cover)
		if err != nil {
			return nil, nil, err
		}
		replayedSegs = n
	}
	v["trace.coverage_frac"] = median(cover)
	ov, err := traceOverhead(ctx, li, bi)
	if err != nil {
		return nil, nil, err
	}
	v["trace.overhead_frac"] = ov
	switch {
	case res.Failed > failed:
		// The mismatches are in res.Errors.
	case sp.live():
		// The served sessions saw a growing feed; the replay ranks the
		// final one, so only the segment replay is compared.
		res.Checks = append(res.Checks, fmt.Sprintf("traced replay: %d rounds over the final feed; %d segments' serial stages match ProcessSceneStream", len(all), replayedSegs))
	default:
		res.Checks = append(res.Checks, fmt.Sprintf("traced replay: %d rounds re-ranked identically to the served sessions", len(all)))
	}

	rows := make([]layerRow, len(layerDefs))
	for i, d := range layerDefs {
		rows[i] = layerRow{layerDef: d, Value: v[d.Name]}
	}
	return rows, tr.spans, nil
}

// liveLayers fills the ingest-side rows: the served window's staleness
// and counters, and a serial stage replay of the same scenes.
// It returns how many segments it replayed.
func liveLayers(tr *tracer, li *layerInputs, res *result, v map[string]float64, cover *[]float64) (int, error) {
	e := li.e
	st := e.daemon.Stats()
	v["ingestd.staleness_p50_ms"] = median(li.staleMs)
	v["ingestd.staleness_p90_ms"] = percentile(li.staleMs, 0.9)
	v["ingestd.admit_wait_ms"] = median(li.admitMs)
	v["ingestd.backpressure_waits"] = float64(st.BackpressureWaits)
	v["ingestd.lost_segments"] = float64(st.Shed + st.ProcessFailures + st.CommitsDropped)
	if st.Committed > 0 {
		v["index.inserted"] = float64(st.IndexInserted) / float64(st.Committed)
		v["index.compactions"] = float64(st.Compactions) / float64(st.Committed)
	}
	e.ap.mu.Lock()
	var applyMs []float64
	for _, d := range e.ap.applyDur {
		applyMs = append(applyMs, ms(d))
	}
	e.ap.mu.Unlock()
	v["index.apply_ms"] = median(applyMs)
	if l := li.after.Live; l != nil && l.Rounds > 0 {
		v["index.live_retries"] = float64(l.Retries) / float64(l.Rounds)
	}

	scenes, err := liveScenes(li.segs + 1)
	if err != nil {
		return 0, err
	}
	var seg, renderMs, bgMs, spcpeMs, trackMs, windowMs, overlap []float64
	deadline := time.Now().Add(li.sp.replayBudget / 2)
	for n := 1; n < len(scenes); n++ {
		if n > 1 && time.Now().After(deadline) {
			break
		}
		t, err := replaySegment(tr, scenes[n], n, res.fail)
		if err != nil {
			return 0, err
		}
		f := float64(t.frames)
		seg = append(seg, t.streamMs)
		renderMs = append(renderMs, t.renderMs/f)
		bgMs = append(bgMs, t.bgMs)
		spcpeMs = append(spcpeMs, t.spcpeMs/f)
		trackMs = append(trackMs, t.trackMs/f)
		windowMs = append(windowMs, t.windowMs)
		overlap = append(overlap, (t.renderMs+t.bgMs+t.spcpeMs+t.trackMs+t.windowMs)/t.streamMs)
		*cover = append(*cover, t.coverage)
	}
	v["core.segment_ms"] = median(seg)
	v["render.frame_ms"] = median(renderMs)
	v["segment.background_ms"] = median(bgMs)
	v["segment.spcpe_frame_ms"] = median(spcpeMs)
	v["track.frame_ms"] = median(trackMs)
	v["window.extract_ms"] = median(windowMs)
	v["core.overlap_frac"] = median(overlap)
	v["ingestd.commit_queue_ms"] = v["ingestd.staleness_p50_ms"] - v["ingestd.admit_wait_ms"] - v["core.segment_ms"] - v["index.apply_ms"]
	return len(seg), nil
}

// traceOverhead replays the same unit of work with spans off and on,
// alternating, for up to five pairs within a quarter of the replay
// budget, and compares the fastest of each side: a session's rounds for
// the feedback workloads, a segment's serial stage replay for
// live-ingest.
func traceOverhead(ctx context.Context, li *layerInputs, bi *index.BagIndex) (float64, error) {
	var scene *sim.Scene
	if li.sp.live() {
		scenes, err := liveScenes(2)
		if err != nil {
			return 0, err
		}
		scene = scenes[1]
	}
	best := [2]time.Duration{}
	deadline := time.Now().Add(li.sp.replayBudget / 4)
	for rep := 0; rep < 5 && (rep < 2 || time.Now().Before(deadline)); rep++ {
		for _, on := range []bool{false, true} {
			tr := newTracer(on)
			t0 := time.Now()
			var err error
			if scene != nil {
				_, err = replaySegment(tr, scene, 1, nil)
			} else {
				_, err = replaySession(ctx, tr, li, bi, 0, nil)
			}
			d := time.Since(t0)
			if err != nil {
				return 0, err
			}
			k := btoi(on)
			if best[k] == 0 || d < best[k] {
				best[k] = d
			}
		}
	}
	return float64(best[1])/float64(best[0]) - 1, nil
}
