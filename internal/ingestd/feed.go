package ingestd

import (
	"encoding/json"
	"fmt"

	"milvideo/internal/sim"
	"milvideo/internal/videodb"
	"milvideo/internal/window"
)

// StateKey is the Meta key under which the feed clip record carries
// the daemon's bookkeeping. It is the only key the feed record's Meta
// holds: gob encodes maps in iteration order, so a single-key map is
// the largest Meta that still snapshots to deterministic bytes — the
// property the chaos conformance suite pins (same fault schedule ⇒
// byte-identical catalog).
const StateKey = "ingestd.state"

// segMeta locates one committed segment inside the feed clip: the
// catalog name of its standalone record, its source sequence number,
// and the frame / VS-index offsets its windows occupy in the merged
// feed. Offsets are assigned once at commit and never reused — the
// monotonic VS numbering is what keeps incremental index maintenance
// sound across evictions.
type segMeta struct {
	Name      string `json:"name"`
	Seq       uint64 `json:"seq"`
	FrameBase int    `json:"frame_base"`
	VSBase    int    `json:"vs_base"`
	VSCount   int    `json:"vs_count"`
	Frames    int    `json:"frames"`
}

// feedJSON is the persisted form of feedState, stored under StateKey
// so a restarted daemon resumes numbering where the snapshot left off.
type feedJSON struct {
	NextSeq   uint64    `json:"next_seq"`
	NextVS    int       `json:"next_vs"`
	FrameBase int       `json:"frame_base"`
	Segments  []segMeta `json:"segments"`
}

// feedState is the pure bookkeeping of the live feed clip: which
// segments survive, where each sits in the merged frame/VS numbering,
// and the high-water marks that make every assignment monotonic. It
// has no locks, no clock and no I/O — the daemon serializes access,
// and the property tests drive it directly through arbitrary
// append/evict interleavings.
type feedState struct {
	feedName  string
	modelName string
	fps       float64
	window    window.Config

	nextSeq   uint64
	nextVS    int
	frameBase int
	segs      []segMeta // surviving segments, oldest first
}

// newFeedState returns empty bookkeeping for a feed clip.
func newFeedState(feedName string) *feedState {
	return &feedState{feedName: feedName}
}

// append admits one committed segment at the end of the feed,
// assigning its frame and VS-index offsets. The segment's own record
// keeps local numbering (frames from 0, VS indices from 0); the
// returned segMeta says where those land in the feed.
func (f *feedState) append(name string, seq uint64, frames, vsCount int) segMeta {
	sm := segMeta{
		Name:      name,
		Seq:       seq,
		FrameBase: f.frameBase,
		VSBase:    f.nextVS,
		VSCount:   vsCount,
		Frames:    frames,
	}
	f.segs = append(f.segs, sm)
	f.frameBase += frames
	f.nextVS += vsCount
	if seq >= f.nextSeq {
		f.nextSeq = seq + 1
	}
	return sm
}

// evictOldest removes and returns the oldest surviving segment.
// Offsets are not reclaimed: the feed's frame count and VS numbering
// only ever grow.
func (f *feedState) evictOldest() (segMeta, bool) {
	if len(f.segs) == 0 {
		return segMeta{}, false
	}
	sm := f.segs[0]
	f.segs = f.segs[1:]
	return sm, true
}

// liveVSs is the VS count over surviving segments.
func (f *feedState) liveVSs() int {
	n := 0
	for _, sm := range f.segs {
		n += sm.VSCount
	}
	return n
}

// buildVSs assembles the feed clip's VS database from the surviving
// segments: each segment's local VSs shifted to their feed offsets.
// lookup resolves a segment name to its immutable record. The TS
// slices are shared with the segment records (safe under the videodb
// immutability contract); the VS headers are fresh copies.
func (f *feedState) buildVSs(lookup func(name string) (*videodb.ClipRecord, error)) ([]window.VS, error) {
	out := make([]window.VS, 0, f.liveVSs())
	for _, sm := range f.segs {
		rec, err := lookup(sm.Name)
		if err != nil {
			return nil, fmt.Errorf("ingestd: feed segment %q: %w", sm.Name, err)
		}
		if len(rec.VSs) != sm.VSCount {
			return nil, fmt.Errorf("ingestd: feed segment %q has %d VSs, bookkeeping says %d",
				sm.Name, len(rec.VSs), sm.VSCount)
		}
		for _, vs := range rec.VSs {
			vs.Index = sm.VSBase + vs.Index
			vs.StartFrame += sm.FrameBase
			vs.EndFrame += sm.FrameBase
			out = append(out, vs)
		}
	}
	return out, nil
}

// buildRecord assembles the feed clip's catalog record over the
// surviving segments: merged VSs, merged incident log (shifted to
// feed frame numbering), and the bookkeeping under StateKey. The feed
// spans every frame ever committed (frameBase), so evictions never
// invalidate surviving windows' intervals.
func (f *feedState) buildRecord(lookup func(name string) (*videodb.ClipRecord, error)) (*videodb.ClipRecord, error) {
	if len(f.segs) == 0 {
		return nil, fmt.Errorf("ingestd: feed %q has no surviving segments", f.feedName)
	}
	vss, err := f.buildVSs(lookup)
	if err != nil {
		return nil, err
	}
	var incidents []sim.Incident
	for _, sm := range f.segs {
		rec, err := lookup(sm.Name)
		if err != nil {
			return nil, fmt.Errorf("ingestd: feed segment %q: %w", sm.Name, err)
		}
		for _, inc := range rec.Incidents {
			inc.Start += sm.FrameBase
			inc.End += sm.FrameBase
			incidents = append(incidents, inc)
		}
	}
	state, err := json.Marshal(feedJSON{
		NextSeq:   f.nextSeq,
		NextVS:    f.nextVS,
		FrameBase: f.frameBase,
		Segments:  f.segs,
	})
	if err != nil {
		return nil, fmt.Errorf("ingestd: encode feed state: %w", err)
	}
	rec := &videodb.ClipRecord{
		Name:      f.feedName,
		Frames:    f.frameBase,
		FPS:       f.fps,
		ModelName: f.modelName,
		Window:    f.window,
		VSs:       vss,
		Incidents: incidents,
		Meta:      map[string]string{StateKey: string(state)},
	}
	if err := rec.Validate(); err != nil {
		return nil, fmt.Errorf("ingestd: feed record: %w", err)
	}
	return rec, nil
}

// recoverFeedState rebuilds bookkeeping from a snapshotted feed
// record. Segments whose standalone records did not survive recovery
// (e.g. skipped as corrupt) are dropped from the feed — the daemon
// re-publishes a consistent feed on its next commit.
func recoverFeedState(feed *videodb.ClipRecord, have func(name string) bool) (*feedState, error) {
	raw, ok := feed.Meta[StateKey]
	if !ok {
		return nil, fmt.Errorf("ingestd: feed record %q carries no %s", feed.Name, StateKey)
	}
	var fj feedJSON
	if err := json.Unmarshal([]byte(raw), &fj); err != nil {
		return nil, fmt.Errorf("ingestd: decode feed state: %w", err)
	}
	f := &feedState{
		feedName:  feed.Name,
		modelName: feed.ModelName,
		fps:       feed.FPS,
		window:    feed.Window,
		nextSeq:   fj.NextSeq,
		nextVS:    fj.NextVS,
		frameBase: fj.FrameBase,
	}
	for _, sm := range fj.Segments {
		if have(sm.Name) {
			f.segs = append(f.segs, sm)
		}
	}
	return f, nil
}
