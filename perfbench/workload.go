package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"milvideo/internal/core"
	"milvideo/internal/ingestd"
	"milvideo/internal/server"
	"milvideo/internal/sim"
	"milvideo/internal/videodb"
	"milvideo/internal/window"
)

// spec is one workload: what the catalog looks like, how the server is
// configured, and what load arrives. The rates are fixed, measured once
// on a 2-core machine (see README.md), so the offered load never depends
// on the machine running the benchmark; cpu_cores shows how close to
// saturation that load runs.
type spec struct {
	name string
	// scale multiplies the 48-VS demo mix (archive and demo catalogs).
	scale int
	// index and candidates configure the session's candidate index
	// ("" = exact ranking); quant selects the index quantizer.
	index      string
	quant      string
	candidates int
	// predFrac is the share of sessions seeded by DemoPredicates()[0].
	predFrac float64
	// sessionRate is the offered session arrival rate (sessions/s).
	sessionRate float64
	// segmentRate, when > 0, makes the workload live: simulated
	// segments arrive at this rate (segments/s) into an ingest daemon.
	segmentRate float64
	// replayBudget bounds the traced replay's wall time.
	replayBudget time.Duration
}

const (
	// rounds is the paper's protocol: the query plus four judged
	// feedback rounds.
	rounds = 5
	// topK is the number of results the analyst labels per round.
	topK = 20
	// think is the fixed pause between a response and the next request
	// of the same session.
	think = 100 * time.Millisecond
	// liveFrames is the per-segment clip length of the live feed.
	liveFrames = 100

	// setupSamples is how many set-up samples setup_s is the median of.
	setupSamples = 4
	// setupBatch is the least time one set-up sample covers; a sample is
	// the mean of the set-ups that batch ran. On a shared machine one
	// set-up is fast or slow as its core was idle or contended, a two-mode
	// mix whose median jumps between the modes from run to run; a mean
	// over a second of set-ups moves smoothly.
	setupBatch = time.Second
)

var workloads = map[string]spec{
	// The index layer does most of the work: a VP-tree + PQ probe over
	// 48,000 bags, MIL over a ~1,500-bag union, 48,000-entry responses.
	"archive-feedback": {
		name: "archive-feedback", scale: 1000,
		index: "vptree", quant: "pq", candidates: 1500,
		sessionRate: 1, replayBudget: 8 * time.Second,
	},
	// The index does nothing; per-round fixed costs (HTTP, sessions,
	// small MIL, predicate compile/score) dominate. The rate keeps
	// queueing small: at 25 sessions/s, a stretch in which the shared
	// machine ran 1.9× slower made round_p50_ms 2.4× slower, as waits
	// for the two connections grew with the service time.
	"demo-feedback": {
		name: "demo-feedback", scale: 10, predFrac: 0.5,
		sessionRate: 10, replayBudget: 4 * time.Second,
	},
	// Vision stages dominate the CPU; index writes interleave with live
	// refreshes and probes of the same entries.
	"live-ingest": {
		name: "live-ingest", index: "vptree", candidates: 24,
		sessionRate: 4, segmentRate: 0.6, replayBudget: 8 * time.Second,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (sp spec) live() bool { return sp.segmentRate > 0 }

// env is one set-up serving stack.
type env struct {
	db     *videodb.DB
	rec    *videodb.ClipRecord // archive and demo: the served clip
	clip   string
	srv    *server.Server
	hs     *http.Server
	client *server.Client

	// Live only.
	daemon *ingestd.Daemon
	src    *schedSource
	ap     *applyRecorder

	closed bool
}

// close stops everything the stack started and waits for it; closing a
// closed stack does nothing.
func (e *env) close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.daemon != nil {
		e.daemon.Stop()
	}
	if e.hs != nil {
		e.hs.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.client != nil {
		e.client.HTTP.CloseIdleConnections()
	}
}

// setup builds the workload's serving stack up to the point where the
// first timed request can be served: catalog synthesis, server start
// on a loopback port, the first index build and quantizer training
// (forced by an untimed warm-up session) and, for live-ingest, the
// daemon's first commit.
func setup(ctx context.Context, sp spec, senders int) (*env, error) {
	e := &env{db: videodb.New()}
	cfg := server.Config{DB: e.db, Quant: sp.quant, DefaultCandidates: sp.candidates}
	if sp.live() {
		e.clip = "live"
		e.src = &schedSource{armed: make(chan struct{})}
		d, err := ingestd.New(ingestd.Config{
			DB: e.db, Source: e.src, FeedClip: e.clip,
			Pipeline: livePipeline(), Workers: 1,
		})
		if err != nil {
			return nil, err
		}
		e.daemon = d
		cfg.Ingest = d
	} else {
		rec, err := server.ScaledDemoRecord(catalogSeed, sp.scale)
		if err != nil {
			return nil, err
		}
		if err := e.db.Add(rec); err != nil {
			return nil, err
		}
		e.rec, e.clip = rec, rec.Name
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	e.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e.hs = &http.Server{Handler: srv.Handler()}
	go e.hs.Serve(ln)
	e.client = &server.Client{BaseURL: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders,
	}}}
	if sp.live() {
		e.ap = newApplyRecorder(srv, e.db, e.clip)
		if err := e.daemon.Start(context.Background(), e.ap); err != nil {
			e.close()
			return nil, err
		}
		select {
		case <-e.ap.first:
		case <-ctx.Done():
			e.close()
			return nil, ctx.Err()
		case <-time.After(60 * time.Second):
			e.close()
			return nil, errors.New("live feed not committed within 60s")
		}
	}
	if err := e.warmUp(ctx, sp); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up session: %w", err)
	}
	return e, nil
}

// warmUp runs one untimed session: the query builds (and for PQ,
// trains) the candidate index, one feedback round exercises the probe.
func (e *env) warmUp(ctx context.Context, sp spec) error {
	resp, err := e.client.Query(ctx, server.QueryRequest{Clip: e.clip, TopK: topK, Index: sp.index, Candidates: sp.candidates})
	if err != nil {
		return err
	}
	labels := make([]server.FeedbackLabel, len(resp.TopK))
	for i, en := range resp.TopK {
		labels[i] = server.FeedbackLabel{VS: en.VS, Relevant: i%2 == 0}
	}
	if _, err := e.client.Feedback(ctx, resp.Session, labels); err != nil {
		return err
	}
	return e.client.Delete(ctx, resp.Session)
}

// livePipeline is the ingest pipeline of live-ingest: the default
// stages, with one segmentation worker. With the daemon's single
// pipeline worker, ingest keeps to about one core and leaves the other
// to serving: on two cores, a pipeline on both made the live round p90
// swing 2× between runs, depending only on which rounds happened to
// coincide with segmentation.
func livePipeline() core.Config {
	cfg := core.DefaultConfig()
	cfg.Stream.SegWorkers = 1
	return cfg
}

// catalogSeed fixes the archive and demo catalogs, and footageSeed the
// live feed's footage; only the sessions' arrivals vary with the
// workload seed. Every session of a run does the same work, so a seed
// changes when work arrives, not how much there is. With seeded
// catalogs, the archive's CPU per run differed by 15% between two
// seeds; with seeded footage, the scenes' differing vision cost more
// than doubled the live round p90's spread across seeds.
const (
	catalogSeed = 1
	footageSeed = 0
)

// schedSource is the live workload's camera: segment 0 arrives at once
// (set-up's first commit), segments 1.. arrive on the timed schedule,
// armed when the window opens. Scenes are generated before they are
// due, as a camera delivers finished footage.
type schedSource struct {
	armed chan struct{}
	start time.Time // written before armed is closed

	mu     sync.Mutex
	scenes []*sim.Scene    // scenes[i] is segment i
	offs   []time.Duration // offs[i] is segment i+1's offset
	dues   []time.Time     // due time of each delivered segment
	pulls  []time.Time     // when the daemon asked for it
	n      int
}

// liveScenes generates the first n segments of the live feed.
func liveScenes(n int) ([]*sim.Scene, error) {
	gen := &ingestd.SimSource{Seed: footageSeed, Frames: liveFrames}
	out := make([]*sim.Scene, n)
	for i := range out {
		s, err := gen.Next(context.Background())
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// load installs the timed schedule: segment i+1 is due offs[i] after
// the window opens.
func (s *schedSource) load(scenes []*sim.Scene, offs []time.Duration) {
	s.mu.Lock()
	s.scenes, s.offs = scenes, offs
	s.mu.Unlock()
}

// arm opens the window.
func (s *schedSource) arm(start time.Time) {
	s.start = start
	close(s.armed)
}

// Next implements ingestd.Source.
func (s *schedSource) Next(ctx context.Context) (*sim.Scene, error) {
	pull := time.Now()
	s.mu.Lock()
	i := s.n
	s.mu.Unlock()
	if i == 0 {
		scenes, err := liveScenes(1)
		if err != nil {
			return nil, err
		}
		s.record(pull, pull)
		return scenes[0], nil
	}
	select {
	case <-s.armed:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	s.mu.Lock()
	if i-1 >= len(s.offs) {
		s.mu.Unlock()
		return nil, io.EOF
	}
	dueAt := s.start.Add(s.offs[i-1])
	scene := s.scenes[i]
	s.mu.Unlock()
	if wait := time.Until(dueAt); wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
	s.record(dueAt, pull)
	return scene, nil
}

func (s *schedSource) record(dueAt, pull time.Time) {
	s.mu.Lock()
	s.dues = append(s.dues, dueAt)
	s.pulls = append(s.pulls, pull)
	s.n++
	s.mu.Unlock()
}

// delivered returns the due and pull times of every delivered segment.
func (s *schedSource) delivered() (dues, pulls []time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Time(nil), s.dues...), append([]time.Time(nil), s.pulls...)
}

// applyRecorder wraps the server's ingestd.Applier to see the call that
// makes each committed segment queryable: it times ApplyLive, notes
// which segment it published, and remembers every feed generation's VS
// set so rankings can be checked against it.
type applyRecorder struct {
	inner *server.Server
	db    *videodb.DB
	clip  string
	first chan struct{}

	mu       sync.Mutex
	applied  map[uint64]time.Time // segment seq → ApplyLive return
	applyDur []time.Duration
	gens     map[[2]int]bool // {lowest VS index, count} of each feed generation
	tsCount  map[int]int     // feed VS index → TS count
}

func newApplyRecorder(inner *server.Server, db *videodb.DB, clip string) *applyRecorder {
	return &applyRecorder{
		inner: inner, db: db, clip: clip, first: make(chan struct{}),
		applied: map[uint64]time.Time{}, gens: map[[2]int]bool{}, tsCount: map[int]int{},
	}
}

// ApplyLive implements ingestd.Applier.
func (a *applyRecorder) ApplyLive(clip string, vss []window.VS, gen uint64) (ingestd.ApplyOutcome, error) {
	seq, ok := a.newestSegment()
	a.mu.Lock()
	lo := 0
	if len(vss) > 0 {
		lo = vss[0].Index
	}
	a.gens[[2]int{lo, len(vss)}] = true
	for _, vs := range vss {
		a.tsCount[vs.Index] = len(vs.TSs)
	}
	a.mu.Unlock()
	start := time.Now()
	out, err := a.inner.ApplyLive(clip, vss, gen)
	end := time.Now()
	a.mu.Lock()
	a.applyDur = append(a.applyDur, end.Sub(start))
	if ok {
		if _, seen := a.applied[seq]; !seen && len(a.applied) == 0 {
			close(a.first)
		}
		a.applied[seq] = end
	}
	a.mu.Unlock()
	return out, err
}

// DropClips implements ingestd.Applier.
func (a *applyRecorder) DropClips(names []string) int { return a.inner.DropClips(names) }

// newestSegment finds the segment the daemon just committed: commits
// are serial and in sequence order, and the daemon adds the segment's
// record ("<feed>-seg-<seq>") before publishing it, so the highest
// surviving segment name is the one being applied.
func (a *applyRecorder) newestSegment() (uint64, bool) {
	prefix := a.clip + "-seg-"
	var best uint64
	found := false
	for _, name := range a.db.Names() {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name[len(prefix):], "%d", &seq); err == nil && (!found || seq > best) {
			best, found = seq, true
		}
	}
	return best, found
}
