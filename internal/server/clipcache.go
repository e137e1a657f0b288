package server

import (
	"sync"
	"time"

	"milvideo/internal/index"
	"milvideo/internal/retrieval"
	"milvideo/internal/shard"
	"milvideo/internal/videodb"
	"milvideo/internal/window"
)

// clipCache holds what serving derives from each clip's VS database,
// keyed by clip name: the parts its in-process probers cover (the
// consistent-hash partition when sharding in process, else the whole
// clip as one part), one maintained candidate index per part, and the
// §5.3 heuristic order. An entry describes one VS backing array
// (videodb.SharesBacking), never a length: a live commit can evict
// and append as many windows as it drops, and a replaced clip can
// keep its count. A backing change replaces the entry instead of
// mutating it, so a pinned session keeps the parts, order and indexes
// it captured; the replacement carries the part indexes over, and its
// first indexed round reconciles them (Server.partIndex).
type clipCache struct {
	mu      sync.Mutex
	ring    *shard.Ring // nil unless sharding in process
	opt     index.Options
	entries map[string]*clipEntry
}

type clipEntry struct {
	vss []window.VS
	// parts is the ring partition, or without a ring the whole clip
	// as one part with identity positions (Pos nil).
	parts []shard.Part
	// indexes holds one maintained index per part, shared with the
	// entry this one replaced.
	indexes []*partSlot
	// order is HeuristicOrder(vss), computed under mu by the first
	// round that reads it: round 0 of an indexed session whose engine
	// falls back to the §5.3 order (retrieval.OrderRanker), or a
	// pruned round that leaves a remainder. Readers never write into
	// it; the fallback returns a copy.
	mu    sync.Mutex
	order []int
}

// partSlot holds one part's candidate index with the part slice and
// catalog generation it currently reflects. Its lock serializes the
// part's maintenance; the cache lock is never held across a build or
// delta, so parts build and update in parallel. A rebuild installs a
// new BagIndex and leaves the old one to the sessions that hold it.
type partSlot struct {
	mu  sync.Mutex
	bi  *index.BagIndex
	vss []window.VS
	gen uint64
}

func newClipCache(ring *shard.Ring, opt index.Options) *clipCache {
	return &clipCache{ring: ring, opt: opt, entries: make(map[string]*clipEntry)}
}

// get returns the entry for a clip's current VS database, replacing
// one computed over another backing. With resident set, a clip
// without an entry gets nil instead of a new one.
func (c *clipCache) get(name string, vss []window.VS, resident bool) *clipEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, ok := c.entries[name]
	if ok && videodb.SharesBacking(old.vss, vss) {
		return old
	}
	if !ok && resident {
		return nil
	}
	e := &clipEntry{vss: vss, parts: []shard.Part{{VSs: vss}}}
	if c.ring != nil {
		e.parts = shard.PartitionVS(c.ring, name, vss)
	}
	if ok {
		e.indexes = old.indexes
	} else {
		e.indexes = make([]*partSlot, len(e.parts))
		for i := range e.indexes {
			e.indexes[i] = &partSlot{}
		}
	}
	c.entries[name] = e
	return e
}

// heuristicOrder returns the entry's stored order, computing it on
// first use.
func (e *clipEntry) heuristicOrder() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.order == nil {
		e.order = retrieval.HeuristicOrder(e.vss)
	}
	return e.order
}

// built reports how many of the entry's part indexes hold an index.
func (e *clipEntry) built() int {
	n := 0
	for _, p := range e.indexes {
		p.mu.Lock()
		if p.bi != nil {
			n++
		}
		p.mu.Unlock()
	}
	return n
}

// drop discards one clip's entry (deletion or retention eviction),
// returning how many built indexes went with it.
func (c *clipCache) drop(name string) int {
	c.mu.Lock()
	e, ok := c.entries[name]
	delete(c.entries, name)
	c.mu.Unlock()
	if !ok {
		return 0
	}
	return e.built()
}

// maintenance sums the resident indexes' live tombstones, threshold
// rebuilds and quantizer training time for /v1/stats.
func (c *clipCache) maintenance() (tombstones int, rebuilds uint64, trainTime time.Duration) {
	c.mu.Lock()
	var parts []*partSlot
	for _, e := range c.entries {
		parts = append(parts, e.indexes...)
	}
	c.mu.Unlock()
	for _, p := range parts {
		p.mu.Lock()
		bi := p.bi
		p.mu.Unlock()
		if bi == nil {
			continue
		}
		m := bi.Maintenance()
		tombstones += m.Tombstones
		rebuilds += m.Rebuilds
		trainTime += bi.TrainTime()
	}
	return
}

// partIndex returns part i's index reconciled with the catalog
// snapshot at gen, and counts how: built on first use, a hit at the
// same generation, a verified delta when the part's backing is
// unchanged (ingest of another clip bumped the generation) or the
// clip is the live feed (its VS indices are never reused, so the
// delta is exactly the appended and evicted windows), else a rebuild
// into a new index over the replaced content.
func (s *Server) partIndex(clip string, e *clipEntry, i int, gen uint64) (*index.BagIndex, error) {
	p, vss := e.indexes[i], e.parts[i].VSs
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.bi != nil && p.gen == gen:
		s.metrics.IndexCacheHits.Add(1)
		return p.bi, nil
	case p.bi != nil && (videodb.SharesBacking(p.vss, vss) || s.feedClip(clip)):
		if _, err := p.bi.Update(vss); err != nil {
			return nil, err
		}
		p.vss, p.gen = vss, gen
		s.metrics.IndexApplies.Add(1)
		return p.bi, nil
	}
	start := time.Now()
	bi, err := index.Build(vss, index.KindVPTree, s.clips.opt)
	if err != nil {
		return nil, err
	}
	s.metrics.IndexBuild.Observe(time.Since(start))
	if p.bi == nil {
		s.metrics.IndexBuilds.Add(1)
	} else {
		s.metrics.IndexRebuilds.Add(1)
	}
	p.bi, p.vss, p.gen = bi, vss, gen
	return bi, nil
}

// localProbers returns one LocalProber per part of the clip's entry,
// each over the part's reconciled index. The parts reconcile
// concurrently — builds on first use and delta applications on
// generation bumps alike — so with S shards maintenance cost arrives
// as S parallel ~1/S-sized units instead of one clip-sized pass.
func (s *Server) localProbers(clip string, e *clipEntry, gen uint64) ([]shard.Prober, error) {
	probers := make([]shard.Prober, len(e.parts))
	errs := make([]error, len(e.parts))
	var wg sync.WaitGroup
	for i, part := range e.parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bi, err := s.partIndex(clip, e, i, gen)
			probers[i], errs[i] = shard.LocalProber{VSs: part.VSs, Pos: part.Pos, Index: bi}, err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return probers, nil
}
