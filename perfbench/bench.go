package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"milvideo/internal/ingestd"
	"milvideo/internal/retbench"
	"milvideo/internal/server"
)

// options are a run's command-line settings.
type options struct {
	seed    int64
	seconds int
	trace   bool
	out     string
	log     io.Writer
}

// meta records everything a number depends on besides the code, so
// numbers from different machines or settings are never compared.
type meta struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     int     `json:"seconds"`
	Trace       bool    `json:"trace"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	SessionRate float64 `json:"offered_sessions_per_s"`
	SegmentRate float64 `json:"offered_segments_per_s,omitempty"`
	Sessions    int     `json:"sessions"`
	Segments    int     `json:"segments"`
	Senders     int     `json:"senders"`
	ThinkMs     float64 `json:"think_ms"`
	// SetupTimes are the measured set-up samples, each the mean time of
	// the set-ups in one batch; setup_s is their median.
	SetupTimes []float64 `json:"setup_times_s"`
}

// result is one workload run.
type result struct {
	Workload  string            `json:"workload"`
	Meta      meta              `json:"meta"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []string          `json:"checks"`
	Metrics   map[string]metric `json:"metrics"`
	// EndToEnd holds the end-to-end metrics of a traced run too; Layers
	// is the per-layer table (traced runs only).
	EndToEnd map[string]metric `json:"end_to_end"`
	Layers   []layerRow        `json:"layers,omitempty"`
	Errors   []string          `json:"errors,omitempty"`
}

func (r *result) errorRate() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// fail records a failed operation or output check.
func (r *result) fail(err error) {
	r.Failed++
	r.Correct = false
	if len(r.Errors) < 16 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// commit is the source revision run.sh found, or "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runWorkload sets the workload up, runs its timed window, checks the
// outputs and, when tracing, replays it with spans.
func runWorkload(ctx context.Context, sp spec, opt options) (*result, error) {
	senders := runtime.NumCPU()
	window := time.Duration(opt.seconds) * time.Second
	sched := sessionSchedule(opt.seed, sp.sessionRate, window, sp.predFrac)
	var segs []arrival
	if sp.live() {
		segs = cameraSchedule(sp.segmentRate, window)
	}
	res := &result{
		Workload: sp.name, Correct: true, Metrics: map[string]metric{},
		Meta: meta{
			Workload: sp.name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: commit(),
			SessionRate: sp.sessionRate, SegmentRate: sp.segmentRate,
			Sessions: len(sched), Segments: len(segs), Senders: senders,
			ThinkMs: float64(think) / float64(time.Millisecond),
		},
	}

	// Set-up: half the measured samples before the window, after one
	// unmeasured sample that pays the process's one-time costs, and the
	// other half after the run, so that setup_s samples the machine over
	// the whole run. The last set-up before the window serves the run.
	e, setupTimes, err := setUp(ctx, sp, senders, 1+setupSamples/2)
	if err != nil {
		return nil, err
	}
	defer e.close()
	setupTimes = setupTimes[1:]

	fc := newFeedbackClient(e, sp, sched)
	if sp.live() {
		scenes, err := liveScenes(len(segs) + 1)
		if err != nil {
			return nil, err
		}
		offs := make([]time.Duration, len(segs))
		for i, a := range segs {
			offs[i] = a.At
		}
		e.src.load(scenes, offs)
	}

	// The timed window.
	runtime.GC()
	gen := &generator{senders: senders, think: think}
	before := e.srv.Stats()
	cpu0 := cpuTime()
	start := time.Now()
	if sp.live() {
		e.src.arm(start)
	}
	samples := gen.run(ctx, start, sched, fc)
	if sp.live() {
		waitDrained(e.daemon, 60*time.Second)
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	after := e.srv.Stats()

	// Operations and their outcomes.
	var queryMs, roundMs []float64
	for _, s := range samples {
		res.Attempted++
		if s.Err != nil {
			res.fail(fmt.Errorf("session %d step %d: %w", s.Session, s.Step, s.Err))
			continue
		}
		switch {
		case s.Step == 0:
			queryMs = append(queryMs, ms(s.Latency()))
		case s.Step < rounds:
			roundMs = append(roundMs, ms(s.Latency()))
		}
	}
	var staleMs, admitMs []float64
	if sp.live() {
		staleMs, admitMs = liveStaleness(e, res, len(segs))
	}
	fc.check(res)
	if sp.name == "archive-feedback" {
		if err := identityGate(ctx, e, sp); err != nil {
			res.fail(fmt.Errorf("identity gate: %w", err))
		} else {
			res.Checks = append(res.Checks, "identity gate: a C=N session matches the exact engine byte for byte")
		}
	}
	if len(roundMs) == 0 || len(queryMs) == 0 {
		res.fail(errors.New("no successful rounds"))
	}

	e2e := map[string]metric{
		"query_p50_ms": {median(queryMs), "ms"},
		"round_p50_ms": {median(roundMs), "ms"},
		"cpu_cores":    {cpu.Seconds() / wall.Seconds(), "cores"},
		"rss_peak_mb":  {peakRSSMB(), "MB"},
		"recall_at_10": {fc.finalRecall(), "frac"},
	}
	res.EndToEnd = e2e
	fmt.Fprintf(opt.log, "perfbench: %s: %d queries, %d feedback rounds, %d segments in %.1fs\n",
		sp.name, len(queryMs), len(roundMs), len(staleMs), wall.Seconds())

	var spans []span
	if opt.trace {
		lm := &layerInputs{
			sp: sp, e: e, fc: fc, samples: samples, gen: gen,
			roundMs: roundMs, staleMs: staleMs, admitMs: admitMs, segs: len(segs),
			before: before, after: after,
		}
		rows, sps, err := traceLayers(ctx, lm, res)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		res.Layers, spans = rows, sps
		for _, r := range rows {
			res.Metrics[r.Name] = metric{r.Value, r.Unit}
		}
	}

	e.close()
	last, more, err := setUp(ctx, sp, senders, setupSamples-len(setupTimes))
	if err != nil {
		return nil, err
	}
	last.close()
	setupTimes = append(setupTimes, more...)
	res.Meta.SetupTimes = setupTimes
	e2e["setup_s"] = metric{median(setupTimes), "s"}
	fmt.Fprintf(opt.log, "perfbench: %s set up in %.4gs (median of %.3g)\n", sp.name, median(setupTimes), setupTimes)
	if !opt.trace {
		res.Metrics = e2e
	}
	if err := writeArtifacts(opt, res, spans); err != nil {
		return nil, err
	}
	return res, nil
}

// setUp takes n set-up samples, each the mean time of the set-ups in a
// batch of at least setupBatch, and returns the last stack (the others
// are closed) with the samples. Every set-up starts from memory returned
// to the operating system, as a fresh process does.
func setUp(ctx context.Context, sp spec, senders, n int) (*env, []float64, error) {
	var e *env
	var samples []float64
	for i := 0; i < n; i++ {
		var total time.Duration
		k := 0
		for ; k == 0 || total < setupBatch; k++ {
			if e != nil {
				e.close()
			}
			debug.FreeOSMemory()
			t0 := time.Now()
			var err error
			if e, err = setup(ctx, sp, senders); err != nil {
				return nil, nil, fmt.Errorf("set-up: %w", err)
			}
			total += time.Since(t0)
		}
		samples = append(samples, total.Seconds()/float64(k))
	}
	return e, samples, nil
}

// waitDrained waits for the daemon to commit every scheduled segment
// (the source ends with io.EOF after the last one).
func waitDrained(d *ingestd.Daemon, limit time.Duration) {
	done := make(chan struct{})
	go func() {
		d.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(limit):
	}
}

// liveStaleness matches each timed segment's due time to the ApplyLive
// return that made it queryable, and counts lost segments as failures.
func liveStaleness(e *env, res *result, scheduled int) (staleMs, admitMs []float64) {
	dues, pulls := e.src.delivered()
	e.ap.mu.Lock()
	applied := make(map[uint64]time.Time, len(e.ap.applied))
	for k, v := range e.ap.applied {
		applied[k] = v
	}
	e.ap.mu.Unlock()
	st := e.daemon.Stats()
	unpublished := 0
	for seq := 1; seq <= scheduled; seq++ {
		res.Attempted++
		at, ok := applied[uint64(seq)]
		if seq >= len(dues) || !ok {
			unpublished++
			continue
		}
		staleMs = append(staleMs, ms(at.Sub(dues[seq])))
		admitMs = append(admitMs, ms(max(0, pulls[seq].Sub(dues[seq]))))
	}
	// A segment with no windows legitimately publishes nothing; every
	// other unpublished segment was shed, failed, dropped or never
	// delivered.
	lost := unpublished - int(st.EmptySegments)
	for i := 0; i < lost; i++ {
		res.fail(fmt.Errorf("segment lost (shed %d, failed %d, dropped %d, undelivered or stuck %d)",
			st.Shed, st.ProcessFailures, st.CommitsDropped, lost-int(st.Shed+st.ProcessFailures+st.CommitsDropped)))
	}
	res.Checks = append(res.Checks, fmt.Sprintf("live: %d of %d segments queryable, %d empty", len(staleMs), scheduled, st.EmptySegments))
	return staleMs, admitMs
}

// feedbackClient is the stepper for every workload's sessions: a query,
// four judged feedback rounds and a delete, checking each response.
type feedbackClient struct {
	e     *env
	sp    spec
	sched []arrival
	judge server.Judge
	// relevant is the ground-truth relevant set (archive, demo).
	relevant map[int]bool
	// known maps each clip VS index to its position (archive, demo).
	known map[int]int
	sess  []sessState
}

// sessState is one session's progress; only its own steps touch it.
type sessState struct {
	id   string
	last *server.RoundResponse
	// Per round: the ranking's hash, its top 10, and (live only) the
	// full ranking, kept for the post-run checks.
	hashes  [rounds]uint64
	top10   [rounds][]int
	ranking [rounds][]int
	served  int
}

func newFeedbackClient(e *env, sp spec, sched []arrival) *feedbackClient {
	fc := &feedbackClient{e: e, sp: sp, sched: sched, sess: make([]sessState, len(sched))}
	if sp.live() {
		fc.judge = func(en server.RankingEntry) bool { return en.TSCount >= 2 }
		return fc
	}
	judge, err := server.JudgeFromRecord(e.rec, nil)
	if err != nil {
		panic(err) // the synthetic catalog always carries incidents
	}
	fc.judge = judge
	fc.relevant = map[int]bool{}
	fc.known = make(map[int]int, len(e.rec.VSs))
	for pos, vs := range e.rec.VSs {
		fc.known[vs.Index] = pos
		if judge(server.RankingEntry{VS: vs.Index, StartFrame: vs.StartFrame, EndFrame: vs.EndFrame, TSCount: len(vs.TSs)}) {
			fc.relevant[vs.Index] = true
		}
	}
	return fc
}

// Step implements stepper.
func (fc *feedbackClient) Step(ctx context.Context, s, i int) (bool, error) {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	st := &fc.sess[s]
	var resp *server.RoundResponse
	var err error
	switch {
	case i == 0:
		req := server.QueryRequest{Clip: fc.e.clip, TopK: topK, Index: fc.sp.index, Candidates: fc.sp.candidates}
		if fc.sched[s].Predicate {
			req.Predicate = server.DemoPredicates()[0]
		}
		resp, err = fc.e.client.Query(ctx, req)
		if err == nil {
			st.id = resp.Session
		}
	case i < rounds:
		labels := make([]server.FeedbackLabel, len(st.last.TopK))
		for k, en := range st.last.TopK {
			labels[k] = server.FeedbackLabel{VS: en.VS, Relevant: fc.judge(en)}
		}
		resp, err = fc.e.client.Feedback(ctx, st.id, labels)
	default:
		return false, fc.e.client.Delete(ctx, st.id)
	}
	if err != nil {
		return false, err
	}
	if resp.Round != i {
		return false, fmt.Errorf("round %d came back as round %d", i, resp.Round)
	}
	if err := fc.checkResponse(resp); err != nil {
		return false, err
	}
	st.last = resp
	st.served++
	st.hashes[i] = hashRanking(resp.Ranking)
	n := min(10, len(resp.Ranking))
	st.top10[i] = append([]int(nil), resp.Ranking[:n]...)
	if fc.sp.live() {
		st.ranking[i] = resp.Ranking
	}
	return true, nil
}

// checkResponse verifies that the ranking is a permutation of the
// clip's VS indices and that TopK is its prefix. Live rankings are
// checked against the feed generations after the run.
func (fc *feedbackClient) checkResponse(resp *server.RoundResponse) error {
	if len(resp.Ranking) != resp.DBSize {
		return fmt.Errorf("ranking has %d entries for a %d-VS clip", len(resp.Ranking), resp.DBSize)
	}
	if want := min(topK, len(resp.Ranking)); len(resp.TopK) != want {
		return fmt.Errorf("top-k has %d entries, want %d", len(resp.TopK), want)
	}
	for k, en := range resp.TopK {
		if en.VS != resp.Ranking[k] {
			return fmt.Errorf("top-k entry %d is VS %d, ranking says %d", k, en.VS, resp.Ranking[k])
		}
	}
	if fc.known == nil {
		return nil
	}
	if len(resp.Ranking) != len(fc.known) {
		return fmt.Errorf("ranking has %d entries, clip has %d VSs", len(resp.Ranking), len(fc.known))
	}
	seen := make([]bool, len(fc.known))
	for _, idx := range resp.Ranking {
		pos, ok := fc.known[idx]
		if !ok || seen[pos] {
			return fmt.Errorf("ranking is not a permutation of the clip's VS indices (VS %d)", idx)
		}
		seen[pos] = true
	}
	return nil
}

// check runs the post-run output checks: live permutations against the
// feed generations, and recall that does not fall across feedback
// rounds (ground-truth workloads).
func (fc *feedbackClient) check(res *result) {
	if fc.sp.live() {
		fc.e.ap.mu.Lock()
		defer fc.e.ap.mu.Unlock()
		bad := 0
		for s := range fc.sess {
			for r := 0; r < fc.sess[s].served; r++ {
				if err := checkLivePermutation(fc.sess[s].ranking[r], fc.e.ap.gens); err != nil {
					bad++
					res.fail(fmt.Errorf("session %d round %d: %w", s, r, err))
				}
			}
		}
		if bad == 0 {
			res.Checks = append(res.Checks, "live: every ranking is a permutation of a published feed generation; top-k is its prefix")
		}
		return
	}
	res.Checks = append(res.Checks, "every ranking is a permutation of the clip's VS indices; top-k is its prefix")
	means := fc.roundRecall()
	for r := 2; r < rounds; r++ {
		if means[r] < means[r-1]-1e-12 {
			res.fail(fmt.Errorf("mean recall@10 fell from %.4f (round %d) to %.4f (round %d)", means[r-1], r-1, means[r], r))
			return
		}
	}
	res.Checks = append(res.Checks, fmt.Sprintf("mean recall@10 by round %.3f does not fall across rounds 1-4", means))
}

func checkLivePermutation(ranking []int, gens map[[2]int]bool) error {
	if len(ranking) == 0 {
		return errors.New("empty ranking")
	}
	lo := ranking[0]
	for _, idx := range ranking {
		lo = min(lo, idx)
	}
	if !gens[[2]int{lo, len(ranking)}] {
		return fmt.Errorf("ranking covers VSs %d.. (%d) — no published feed generation", lo, len(ranking))
	}
	seen := make([]bool, len(ranking))
	for _, idx := range ranking {
		p := idx - lo
		if p >= len(ranking) || seen[p] {
			return fmt.Errorf("ranking is not a permutation of the feed's VS indices (VS %d)", idx)
		}
		seen[p] = true
	}
	return nil
}

// recallOf scores one round's top 10 with retbench's min-denominator
// recall@10, against ground truth or, live, the stand-in judge.
func (fc *feedbackClient) recallOf(st *sessState, r int) float64 {
	if !fc.sp.live() {
		return retbench.RecallAtK(st.top10[r], fc.relevant, 10)
	}
	fc.e.ap.mu.Lock()
	defer fc.e.ap.mu.Unlock()
	rel := map[int]bool{}
	for _, idx := range st.ranking[r] {
		if fc.e.ap.tsCount[idx] >= 2 {
			rel[idx] = true
		}
	}
	return retbench.RecallAtK(st.top10[r], rel, 10)
}

// roundRecall is the mean recall@10 of each round across sessions that
// completed it.
func (fc *feedbackClient) roundRecall() [rounds]float64 {
	var sum [rounds]float64
	var n [rounds]int
	for s := range fc.sess {
		for r := 0; r < fc.sess[s].served; r++ {
			sum[r] += fc.recallOf(&fc.sess[s], r)
			n[r]++
		}
	}
	var out [rounds]float64
	for r := range out {
		if n[r] > 0 {
			out[r] = sum[r] / float64(n[r])
		}
	}
	return out
}

// finalRecall is the final round's recall@10 averaged over sessions.
func (fc *feedbackClient) finalRecall() float64 {
	return fc.roundRecall()[rounds-1]
}

func hashRanking(r []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range r {
		for k := range b {
			b[k] = byte(uint64(v) >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// identityGate replays one session at C=N and with exact ranking and
// requires byte-identical rankings and top-k every round (untimed).
func identityGate(ctx context.Context, e *env, sp spec) error {
	judge, err := server.JudgeFromRecord(e.rec, nil)
	if err != nil {
		return err
	}
	runSession := func(idx string, c int) ([][]byte, error) {
		resp, err := e.client.Query(ctx, server.QueryRequest{Clip: e.clip, TopK: topK, Index: idx, Candidates: c})
		if err != nil {
			return nil, err
		}
		defer e.client.Delete(ctx, resp.Session)
		var out [][]byte
		for r := 0; ; r++ {
			blob, err := json.Marshal([]any{resp.Ranking, resp.TopK})
			if err != nil {
				return nil, err
			}
			out = append(out, blob)
			if r == rounds-1 {
				return out, nil
			}
			labels := make([]server.FeedbackLabel, len(resp.TopK))
			for k, en := range resp.TopK {
				labels[k] = server.FeedbackLabel{VS: en.VS, Relevant: judge(en)}
			}
			if resp, err = e.client.Feedback(ctx, resp.Session, labels); err != nil {
				return nil, err
			}
		}
	}
	cn, err := runSession(sp.index, len(e.rec.VSs))
	if err != nil {
		return err
	}
	exact, err := runSession("exact", 0)
	if err != nil {
		return err
	}
	for r := range exact {
		if string(cn[r]) != string(exact[r]) {
			return fmt.Errorf("round %d: C=N ranking differs from exact", r)
		}
	}
	return nil
}

// writeArtifacts writes the full result and, when tracing, the spans.
func writeArtifacts(opt options, res *result, spans []span) error {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(opt.out, fmt.Sprintf("%s-seed%d-trace%d", res.Workload, opt.seed, btoi(opt.trace)))
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(blob, '\n'), 0o644); err != nil {
		return err
	}
	if !opt.trace {
		return nil
	}
	return writeSpans(base+"-spans.jsonl", spans)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
