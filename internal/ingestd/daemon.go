// Package ingestd is the always-on ingest daemon: it turns the batch
// pipeline-plus-snapshot system into a live service. A clip Source
// (simulated or directory-watched) feeds segments through a bounded
// admission queue into the streaming pipeline; committed segments
// land in the catalog as standalone records AND are merged into one
// growing "feed" clip whose windows are applied to the live candidate
// index as incremental deltas — newly ingested footage becomes
// queryable within a configurable staleness bound while query
// sessions keep running. A retention controller ages the oldest
// segments out (by count and/or TTL), tombstoning their windows from
// the index, and periodic checksummed snapshots bound the recovery
// window of a restarted daemon to one snapshot interval.
//
// # Determinism
//
// Everything that shapes the catalog is a pure function of the
// configuration: segment content comes from the seeded source,
// commit order is forced to source-sequence order by a reorder
// buffer (whatever the worker interleaving), fault decisions key on
// the sequence number, and count-based retention depends only on
// commit order. Two daemon runs with the same source and fault seed
// therefore produce byte-identical catalog snapshots — the chaos
// conformance suite replays a run to verify exactly that.
//
// # Feed numbering
//
// The feed clip's VS indices and frame offsets are assigned
// monotonically and never reused, even as old segments are evicted.
// That is the invariant that keeps incremental index maintenance
// (diff by VS.Index) sound against a mutating catalog.
package ingestd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"milvideo/internal/core"
	"milvideo/internal/faults"
	"milvideo/internal/sim"
	"milvideo/internal/videodb"
	"milvideo/internal/window"
)

// Applier receives the daemon's live index changes. The query
// service's index cache implements it: ApplyLive folds the feed
// clip's current windows into every live index entry for that clip
// (delta or rebuild-compaction, per the churn threshold), and
// DropClips discards cached entries for evicted clips. A nil Applier
// is valid — the daemon then only maintains the catalog.
type Applier interface {
	// ApplyLive applies the feed clip's new VS database at catalog
	// generation gen. It reports per-entry totals across the index
	// kinds it maintains.
	ApplyLive(clip string, vss []window.VS, gen uint64) (ApplyOutcome, error)
	// DropClips discards any cached index state for the named clips,
	// returning how many entries were dropped.
	DropClips(names []string) int
}

// ApplyOutcome aggregates what one ApplyLive call did across the
// applier's live index entries.
type ApplyOutcome struct {
	// Entries is how many live index entries absorbed the change.
	Entries int
	// Inserted and Deleted count instances applied as deltas.
	Inserted int
	Deleted  int
	// Rebuilds counts entries whose churn crossed the rebuild
	// threshold and compacted (rebuilt) instead of amending.
	Rebuilds int
}

// Config parameterizes the daemon.
type Config struct {
	// DB is the live catalog, shared with the query service.
	DB *videodb.DB
	// Source supplies clip segments.
	Source Source
	// Pipeline configures the per-segment processing pipeline. A nil
	// Pipeline.Model gets core.DefaultConfig's stage options (the
	// Window and Faults fields are preserved).
	Pipeline core.Config
	// FeedClip names the merged live clip ("live" if empty). Segment
	// records are named "<FeedClip>-seg-<seq>".
	FeedClip string
	// QueueDepth bounds the admission queue (0 means 4). A full queue
	// blocks the source — backpressure, counted — rather than
	// buffering without bound.
	QueueDepth int
	// Workers sizes the pipeline worker pool (0 means 2).
	Workers int
	// MaxStaleness is the queryable-staleness objective: the time from
	// a segment's arrival to its windows being live in the index.
	// Commits that exceed it are counted as violations (0 means 5s).
	MaxStaleness time.Duration
	// RetainSegments caps the surviving segment count; the oldest are
	// evicted past it (0 means 16; minimum 1).
	RetainSegments int
	// RetainTTL evicts segments older than this (0 disables TTL
	// retention). The newest segment always survives.
	RetainTTL time.Duration
	// CommitRetries bounds retry attempts after an injected transient
	// commit failure (0 means 2); RetryBackoff is the base delay
	// between attempts, doubling per attempt (0 means 1ms).
	CommitRetries int
	RetryBackoff  time.Duration
	// SnapshotPath, when set, enables periodic atomic catalog
	// snapshots and recovery: a daemon constructed over an existing
	// snapshot resumes its feed numbering from it. SnapshotEvery is
	// the snapshot interval (0 means 10s).
	SnapshotPath  string
	SnapshotEvery time.Duration
	// Faults injects deterministic failures into the admission,
	// commit and snapshot paths (nil or zero-rate is inert).
	Faults *faults.Injector
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

// job is one admitted segment awaiting processing.
type job struct {
	seq     uint64
	scene   *sim.Scene
	arrival time.Time
}

// processed is one segment after the pipeline (or a tombstone for a
// shed/failed segment, keeping the commit sequence gapless).
type processed struct {
	seq       uint64
	skip      bool
	arrival   time.Time
	sceneName string
	frames    int
	fps       float64
	vss       []window.VS
	incidents []sim.Incident
	degraded  bool
}

// counters are the daemon's atomic lifecycle counters.
type counters struct {
	arrived          atomic.Uint64
	shed             atomic.Uint64
	backpressure     atomic.Uint64
	sourceErrors     atomic.Uint64
	processFailures  atomic.Uint64
	degradedSegments atomic.Uint64
	emptySegments    atomic.Uint64
	committed        atomic.Uint64
	commitRetries    atomic.Uint64
	commitsDropped   atomic.Uint64
	evictions        atomic.Uint64
	evictedSegments  atomic.Uint64
	indexApplies     atomic.Uint64
	indexInserted    atomic.Uint64
	indexDeleted     atomic.Uint64
	compactions      atomic.Uint64
	applyErrors      atomic.Uint64
	snapshots        atomic.Uint64
	snapshotFailures atomic.Uint64
	violations       atomic.Uint64
}

// Daemon is the always-on ingest subsystem. Construct with New,
// launch with Start, stop with Stop.
type Daemon struct {
	cfg     Config
	db      *videodb.DB
	inj     *faults.Injector
	applier Applier
	logf    func(string, ...any)

	mu          sync.Mutex // guards feed, recs, commitTimes, state
	feed        *feedState
	recs        map[string]*videodb.ClipRecord // surviving segment records
	commitTimes map[string]time.Time
	state       string

	stat      counters
	staleness *histogram
	snapSeq   atomic.Uint64

	started bool
	cancel  context.CancelFunc
	done    chan struct{}
}

// New builds a daemon over cfg, recovering feed bookkeeping from
// cfg.SnapshotPath if a snapshot exists there (the catalog in cfg.DB
// is replaced by the snapshot's contents in that case).
func New(cfg Config) (*Daemon, error) {
	if cfg.DB == nil {
		return nil, errors.New("ingestd: Config.DB is required")
	}
	if cfg.Source == nil {
		return nil, errors.New("ingestd: Config.Source is required")
	}
	if cfg.FeedClip == "" {
		cfg.FeedClip = "live"
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxStaleness <= 0 {
		cfg.MaxStaleness = 5 * time.Second
	}
	if cfg.RetainSegments <= 0 {
		cfg.RetainSegments = 16
	}
	if cfg.CommitRetries <= 0 {
		cfg.CommitRetries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 10 * time.Second
	}
	if cfg.Pipeline.Model == nil {
		p := core.DefaultConfig()
		if cfg.Pipeline.Window != (window.Config{}) {
			p.Window = cfg.Pipeline.Window
		}
		p.Faults = cfg.Pipeline.Faults
		p.StageRetries = cfg.Pipeline.StageRetries
		p.RetryBackoff = cfg.Pipeline.RetryBackoff
		cfg.Pipeline = p
	}
	d := &Daemon{
		cfg:         cfg,
		db:          cfg.DB,
		inj:         cfg.Faults,
		logf:        cfg.Logf,
		recs:        make(map[string]*videodb.ClipRecord),
		commitTimes: make(map[string]time.Time),
		state:       "idle",
		staleness:   newHistogram(),
	}
	if d.logf == nil {
		d.logf = func(string, ...any) {}
	}
	if err := d.recover(); err != nil {
		return nil, err
	}
	if d.feed == nil {
		d.feed = newFeedState(cfg.FeedClip)
		d.feed.modelName = cfg.Pipeline.Model.Name()
		d.feed.window = cfg.Pipeline.Window
	}
	return d, nil
}

// recover loads the snapshot at SnapshotPath (if any) into the
// catalog and rebuilds feed bookkeeping from the feed record's
// persisted state. Segment records that did not survive recovery are
// dropped from the feed.
func (d *Daemon) recover() error {
	path := d.cfg.SnapshotPath
	if path == "" {
		return nil
	}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ingestd: open snapshot: %w", err)
	}
	defer f.Close()
	rep, err := d.db.LoadRecovering(f)
	if err != nil {
		return fmt.Errorf("ingestd: recover snapshot %s: %w", path, err)
	}
	if !rep.Clean() {
		d.logf("ingestd: snapshot recovery: %s", rep)
	}
	feedRec, err := d.db.Clip(d.cfg.FeedClip)
	if errors.Is(err, videodb.ErrNotFound) {
		d.logf("ingestd: snapshot has no feed clip %q; starting fresh", d.cfg.FeedClip)
		return nil
	}
	if err != nil {
		return err
	}
	have := func(name string) bool {
		_, err := d.db.Clip(name)
		return err == nil
	}
	fs, err := recoverFeedState(feedRec, have)
	if err != nil {
		return err
	}
	now := time.Now()
	for _, sm := range fs.segs {
		rec, err := d.db.Clip(sm.Name)
		if err != nil {
			return err
		}
		d.recs[sm.Name] = rec
		d.commitTimes[sm.Name] = now
	}
	d.feed = fs
	d.logf("ingestd: recovered feed %q: %d segments, next seq %d, %d VSs",
		fs.feedName, len(fs.segs), fs.nextSeq, fs.liveVSs())
	return nil
}

// Start launches the daemon's goroutines: the admission loop, the
// pipeline worker pool, the committer and the snapshot ticker. ap may
// be nil. Start returns immediately; the pipeline runs until the
// source is exhausted or Stop is called.
func (d *Daemon) Start(ctx context.Context, ap Applier) error {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return errors.New("ingestd: already started")
	}
	d.started = true
	d.state = "running"
	d.mu.Unlock()

	d.applier = ap
	ctx, d.cancel = context.WithCancel(ctx)
	d.done = make(chan struct{})

	jobCh := make(chan job, d.cfg.QueueDepth)
	// The commit channel absorbs tombstones from the admission loop as
	// well as worker output, so it is sized to hold both without
	// coupling their progress.
	commitCh := make(chan processed, d.cfg.QueueDepth+d.cfg.Workers+1)

	var emitWG, workWG, commitWG sync.WaitGroup
	emitWG.Add(1)
	go func() {
		defer emitWG.Done()
		d.emitLoop(ctx, jobCh, commitCh)
	}()
	for w := 0; w < d.cfg.Workers; w++ {
		workWG.Add(1)
		go func() {
			defer workWG.Done()
			d.worker(jobCh, commitCh)
		}()
	}
	commitWG.Add(1)
	go func() {
		defer commitWG.Done()
		d.committer(commitCh)
	}()

	var snapWG sync.WaitGroup
	snapCtx, snapCancel := context.WithCancel(context.Background())
	if d.cfg.SnapshotPath != "" {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			d.snapshotLoop(snapCtx)
		}()
	}

	go func() {
		emitWG.Wait()
		close(jobCh)
		workWG.Wait()
		close(commitCh)
		commitWG.Wait()
		snapCancel()
		snapWG.Wait()
		d.mu.Lock()
		if d.state == "running" {
			d.state = "drained"
		}
		d.mu.Unlock()
		close(d.done)
	}()
	return nil
}

// Wait blocks until the pipeline has drained — the source returned
// io.EOF or Stop cancelled admission — and every admitted segment has
// been committed or accounted for.
func (d *Daemon) Wait() {
	if d.done != nil {
		<-d.done
	}
}

// Stop halts admission, drains the segments already in flight,
// writes a final snapshot (when configured) and returns. Safe to call
// more than once.
func (d *Daemon) Stop() {
	if d.cancel != nil {
		d.cancel()
	}
	d.Wait()
	d.mu.Lock()
	already := d.state == "stopped"
	d.state = "stopped"
	d.mu.Unlock()
	if already {
		return
	}
	if d.cfg.SnapshotPath != "" {
		if err := d.db.SaveFile(d.cfg.SnapshotPath); err != nil {
			d.stat.snapshotFailures.Add(1)
			d.logf("ingestd: final snapshot: %v", err)
		} else {
			d.stat.snapshots.Add(1)
		}
	}
}

// emitLoop pulls segments from the source, assigns sequence numbers,
// applies admission-shedding faults and pushes into the bounded
// queue. Shed or failed arrivals still pass a tombstone to the
// committer so the commit sequence stays gapless.
func (d *Daemon) emitLoop(ctx context.Context, jobCh chan<- job, commitCh chan<- processed) {
	d.mu.Lock()
	seq := d.feed.nextSeq
	d.mu.Unlock()
	for {
		scene, err := d.cfg.Source.Next(ctx)
		if errors.Is(err, io.EOF) || ctx.Err() != nil {
			return
		}
		if err != nil {
			d.stat.sourceErrors.Add(1)
			d.logf("ingestd: source: %v", err)
			continue
		}
		s := seq
		seq++
		d.stat.arrived.Add(1)
		if d.inj.AdmitDropAt(s) {
			d.stat.shed.Add(1)
			commitCh <- processed{seq: s, skip: true}
			continue
		}
		j := job{seq: s, scene: scene, arrival: time.Now()}
		select {
		case jobCh <- j:
		default:
			d.stat.backpressure.Add(1)
			select {
			case jobCh <- j:
			case <-ctx.Done():
				commitCh <- processed{seq: s, skip: true}
				return
			}
		}
	}
}

// worker runs the streaming pipeline over admitted segments. Workers
// drain the queue completely even after Stop — in-flight footage is
// committed, not dropped.
func (d *Daemon) worker(jobCh <-chan job, commitCh chan<- processed) {
	for j := range jobCh {
		clip, err := core.ProcessSceneStream(j.scene, d.cfg.Pipeline)
		if err != nil {
			d.stat.processFailures.Add(1)
			d.logf("ingestd: process segment %d: %v", j.seq, err)
			commitCh <- processed{seq: j.seq, skip: true}
			continue
		}
		p := processed{
			seq:       j.seq,
			arrival:   j.arrival,
			sceneName: j.scene.Name,
			frames:    len(j.scene.Frames),
			fps:       j.scene.FPS,
			vss:       clip.VSs,
			incidents: j.scene.Incidents,
			degraded:  clip.Degraded.Any(),
		}
		clip.Video.Recycle()
		commitCh <- p
	}
}

// committer serializes commits into source-sequence order through a
// reorder buffer, making catalog content independent of worker
// interleaving.
func (d *Daemon) committer(commitCh <-chan processed) {
	d.mu.Lock()
	next := d.feed.nextSeq
	d.mu.Unlock()
	buf := make(map[uint64]processed)
	for p := range commitCh {
		buf[p.seq] = p
		for {
			q, ok := buf[next]
			if !ok {
				break
			}
			delete(buf, next)
			d.commitOne(q)
			next++
		}
	}
	// A cancelled admission can leave a gap (a segment that never got a
	// tombstone); flush whatever remains in sequence order.
	for len(buf) > 0 {
		lowest := uint64(0)
		first := true
		for s := range buf {
			if first || s < lowest {
				lowest, first = s, false
			}
		}
		q := buf[lowest]
		delete(buf, lowest)
		d.commitOne(q)
	}
}

// commitOne lands one in-order segment: catalog commit (segment
// record + feed Replace), retention eviction, live-index application
// and staleness accounting.
func (d *Daemon) commitOne(p processed) {
	if p.skip {
		return
	}
	if p.degraded {
		d.stat.degradedSegments.Add(1)
	}
	if len(p.vss) == 0 {
		d.stat.emptySegments.Add(1)
		return
	}

	// Injected transient commit failures with bounded deterministic
	// retry; a segment that exhausts its budget is dropped, counted,
	// and the feed stays consistent.
	for attempt := 0; ; attempt++ {
		err := d.inj.CommitFaultErr(p.seq, attempt)
		if err == nil {
			break
		}
		if attempt >= d.cfg.CommitRetries {
			d.stat.commitsDropped.Add(1)
			d.logf("ingestd: segment %d dropped after %d commit attempts: %v", p.seq, attempt+1, err)
			return
		}
		d.stat.commitRetries.Add(1)
		time.Sleep(d.cfg.RetryBackoff << attempt)
	}

	segName := fmt.Sprintf("%s-seg-%06d", d.cfg.FeedClip, p.seq)
	segRec := &videodb.ClipRecord{
		Name:      segName,
		Frames:    p.frames,
		FPS:       p.fps,
		ModelName: d.cfg.Pipeline.Model.Name(),
		Window:    d.cfg.Pipeline.Window,
		VSs:       p.vss,
		Incidents: p.incidents,
		Meta:      map[string]string{"source": "ingestd:" + p.sceneName},
	}

	d.mu.Lock()
	if d.feed.fps == 0 {
		d.feed.fps = p.fps
	}
	if err := d.db.Add(segRec); err != nil {
		d.mu.Unlock()
		d.stat.commitsDropped.Add(1)
		d.logf("ingestd: commit segment %d: %v", p.seq, err)
		return
	}
	d.feed.append(segName, p.seq, p.frames, len(p.vss))
	d.recs[segName] = segRec
	now := time.Now()
	d.commitTimes[segName] = now

	// Retention: count cap first, then TTL; the just-committed segment
	// always survives.
	var evicted []string
	for len(d.feed.segs) > d.cfg.RetainSegments {
		sm, _ := d.feed.evictOldest()
		evicted = append(evicted, sm.Name)
	}
	if ttl := d.cfg.RetainTTL; ttl > 0 {
		for len(d.feed.segs) > 1 {
			oldest := d.feed.segs[0]
			if now.Sub(d.commitTimes[oldest.Name]) <= ttl {
				break
			}
			d.feed.evictOldest()
			evicted = append(evicted, oldest.Name)
		}
	}

	lookup := func(name string) (*videodb.ClipRecord, error) {
		if rec, ok := d.recs[name]; ok {
			return rec, nil
		}
		return d.db.Clip(name)
	}
	feedRec, err := d.feed.buildRecord(lookup)
	if err != nil {
		// Unreachable by construction; surface loudly rather than
		// diverge the feed from the segment records.
		d.mu.Unlock()
		d.logf("ingestd: feed rebuild: %v", err)
		return
	}
	if err := d.db.Replace(feedRec); err != nil {
		d.mu.Unlock()
		d.logf("ingestd: publish feed: %v", err)
		return
	}
	if len(evicted) > 0 {
		if err := d.db.RemoveBatch(evicted); err != nil {
			d.logf("ingestd: evict %v: %v", evicted, err)
		} else {
			d.stat.evictions.Add(1)
			d.stat.evictedSegments.Add(uint64(len(evicted)))
		}
		for _, name := range evicted {
			delete(d.recs, name)
			delete(d.commitTimes, name)
		}
	}
	gen := d.db.Generation()
	feedVSs := feedRec.VSs
	d.mu.Unlock()

	if d.applier != nil {
		if len(evicted) > 0 {
			d.applier.DropClips(evicted)
		}
		out, err := d.applier.ApplyLive(d.cfg.FeedClip, feedVSs, gen)
		if err != nil {
			d.stat.applyErrors.Add(1)
			d.logf("ingestd: apply segment %d: %v", p.seq, err)
		} else if out.Entries > 0 {
			d.stat.indexApplies.Add(uint64(out.Entries))
			d.stat.indexInserted.Add(uint64(out.Inserted))
			d.stat.indexDeleted.Add(uint64(out.Deleted))
			d.stat.compactions.Add(uint64(out.Rebuilds))
		}
	}

	staleness := time.Since(p.arrival)
	d.staleness.observe(staleness)
	if staleness > d.cfg.MaxStaleness {
		d.stat.violations.Add(1)
	}
	d.stat.committed.Add(1)
}

// snapshotLoop writes periodic atomic catalog snapshots, absorbing
// injected snapshot failures (the next tick retries).
func (d *Daemon) snapshotLoop(ctx context.Context) {
	t := time.NewTicker(d.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			n := d.snapSeq.Add(1)
			if err := d.inj.SnapshotFaultErr(n); err != nil {
				d.stat.snapshotFailures.Add(1)
				d.logf("ingestd: snapshot %d: %v", n, err)
				continue
			}
			if err := d.db.SaveFile(d.cfg.SnapshotPath); err != nil {
				d.stat.snapshotFailures.Add(1)
				d.logf("ingestd: snapshot %d: %v", n, err)
				continue
			}
			d.stat.snapshots.Add(1)
		}
	}
}

// FeedClip returns the name of the merged live clip.
func (d *Daemon) FeedClip() string { return d.cfg.FeedClip }

// MaxStaleness returns the configured staleness objective.
func (d *Daemon) MaxStaleness() time.Duration { return d.cfg.MaxStaleness }

// Stats assembles the daemon's lifecycle state.
func (d *Daemon) Stats() Stats {
	d.mu.Lock()
	s := Stats{
		State:        d.state,
		FeedClip:     d.cfg.FeedClip,
		LiveSegments: len(d.feed.segs),
		LiveVSs:      d.feed.liveVSs(),
		FeedFrames:   d.feed.frameBase,
		NextSeq:      d.feed.nextSeq,
	}
	d.mu.Unlock()
	s.Arrived = d.stat.arrived.Load()
	s.Shed = d.stat.shed.Load()
	s.BackpressureWaits = d.stat.backpressure.Load()
	s.SourceErrors = d.stat.sourceErrors.Load()
	s.ProcessFailures = d.stat.processFailures.Load()
	s.DegradedSegments = d.stat.degradedSegments.Load()
	s.EmptySegments = d.stat.emptySegments.Load()
	s.Committed = d.stat.committed.Load()
	s.CommitRetries = d.stat.commitRetries.Load()
	s.CommitsDropped = d.stat.commitsDropped.Load()
	s.Evictions = d.stat.evictions.Load()
	s.EvictedSegments = d.stat.evictedSegments.Load()
	s.IndexApplies = d.stat.indexApplies.Load()
	s.IndexInserted = d.stat.indexInserted.Load()
	s.IndexDeleted = d.stat.indexDeleted.Load()
	s.Compactions = d.stat.compactions.Load()
	s.ApplyErrors = d.stat.applyErrors.Load()
	s.Snapshots = d.stat.snapshots.Load()
	s.SnapshotFailures = d.stat.snapshotFailures.Load()
	s.MaxStalenessMs = d.cfg.MaxStaleness.Milliseconds()
	s.StalenessViolations = d.stat.violations.Load()
	s.Staleness = d.staleness.summary()
	return s
}
