package retbench

// The benchmark runner: every (scenario, category) pair becomes one
// retrieval session per serving path, scored against the scenario's
// ground truth. Paths mirror the serving stack's deployment modes —
// exact MIL ranking, candidate-pruned, PQ-quantized probing, and the
// sharded scatter–gather engine — so the benchmark observes the
// same engines production traffic does.

import (
	"fmt"
	"sort"

	"milvideo/internal/index"
	"milvideo/internal/retrieval"
	"milvideo/internal/shard"
	"milvideo/internal/window"
)

// Serving paths.
const (
	PathExact     = "exact"
	PathCandidate = "candidate" // VP-tree candidate index at C = N (exactness identity)
	PathQuantized = "quantized" // VP-tree over PQ codes at C = 3N/4 (lossy probe, exact re-rank)
	PathSharded   = "sharded"   // scatter–gather over ring partitions at C = N
)

// RunConfig tunes a benchmark run.
type RunConfig struct {
	// Rounds is the feedback rounds per session (0 = the paper's 5:
	// initial plus four iterations).
	Rounds int
	// TopK is the per-round result count the oracle labels (0 = 10).
	TopK int
	// K is the recall cutoff (0 = 10).
	K int
	// Shards is the sharded path's partition count (0 = 3).
	Shards int
	// MinOverlap is the oracle's visibility threshold in frames
	// (0 = 5, one sampling interval).
	MinOverlap int
	// Paths selects the serving paths (nil = all four).
	Paths []string
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Rounds <= 0 {
		c.Rounds = 5
	}
	if c.TopK <= 0 {
		c.TopK = 10
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.Shards <= 0 {
		c.Shards = 3
	}
	if c.MinOverlap <= 0 {
		c.MinOverlap = 5
	}
	if len(c.Paths) == 0 {
		c.Paths = []string{PathExact, PathCandidate, PathQuantized, PathSharded}
	}
	return c
}

// ScenarioScore is one (scenario, category) session's outcome across
// paths.
type ScenarioScore struct {
	Scenario string             `json:"scenario"`
	Source   string             `json:"source"`
	Relevant int                `json:"relevant"`
	Recall   map[string]float64 `json:"recall"`
	MAP      map[string]float64 `json:"map"`
}

// CategoryReport aggregates a category across the scenarios scoring
// it: the floor (minimum) recall@K and the mean average precision per
// path.
type CategoryReport struct {
	Name      string             `json:"name"`
	MinRecall map[string]float64 `json:"min_recall"`
	MeanMAP   map[string]float64 `json:"mean_map"`
	Scenarios []ScenarioScore    `json:"scenarios"`
}

// Report is the machine-readable benchmark result (RETBENCH.json).
type Report struct {
	Tier  string `json:"tier"`
	Seed  int64  `json:"seed"`
	K     int    `json:"k"`
	TopK  int    `json:"top_k"`
	Round int    `json:"rounds"`
	// FailedSessions counts sessions that errored or had no relevant
	// VSs to retrieve — either is a benchmark defect, asserted zero
	// in CI.
	FailedSessions int `json:"failed_sessions"`
	// RankIdentical reports whether the candidate path (C = N)
	// reproduced the exact path's full ranking in every round of
	// every session — the exactness identity the index layer
	// guarantees.
	RankIdentical bool             `json:"rank_identical"`
	Categories    []CategoryReport `json:"categories"`
}

// Run executes the suite and scores every category. Sessions are
// deterministic: the same suite and config always produce the same
// report.
func Run(suite *Suite, cfg RunConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{Tier: suite.Tier, Seed: suite.Seed, K: cfg.K, TopK: cfg.TopK, Round: cfg.Rounds, RankIdentical: true}
	byCat := make(map[string]*CategoryReport)
	for _, scen := range suite.Scenarios {
		for _, catName := range scen.Categories {
			cat, err := CategoryByName(catName)
			if err != nil {
				return nil, err
			}
			score, identical, err := runSession(scen, cat, cfg)
			if err != nil {
				return nil, fmt.Errorf("retbench: %s/%s: %w", scen.Name, catName, err)
			}
			if !identical {
				rep.RankIdentical = false
			}
			if score.Relevant == 0 || score.failed {
				rep.FailedSessions++
			}
			cr := byCat[catName]
			if cr == nil {
				cr = &CategoryReport{Name: catName, MinRecall: map[string]float64{}, MeanMAP: map[string]float64{}}
				byCat[catName] = cr
			}
			cr.Scenarios = append(cr.Scenarios, score.ScenarioScore)
		}
	}
	for _, cr := range byCat {
		for _, path := range cfg.Paths {
			min, sum := 1.0, 0.0
			for _, s := range cr.Scenarios {
				if r := s.Recall[path]; r < min {
					min = r
				}
				sum += s.MAP[path]
			}
			cr.MinRecall[path] = min
			cr.MeanMAP[path] = sum / float64(len(cr.Scenarios))
		}
		rep.Categories = append(rep.Categories, *cr)
	}
	sort.Slice(rep.Categories, func(i, j int) bool {
		return rep.Categories[i].Name < rep.Categories[j].Name
	})
	return rep, nil
}

// sessionScore wraps a ScenarioScore with run-internal flags.
type sessionScore struct {
	ScenarioScore
	failed bool
}

// runSession builds the category's VS database from the scenario's
// tracks, derives ground-truth relevance, and runs one feedback
// session per serving path.
func runSession(scen Scenario, cat Category, cfg RunConfig) (sessionScore, bool, error) {
	totalFrames := len(scen.Scene.Frames)
	db, err := window.Extract(scen.Tracks, cat.Model, totalFrames, window.DefaultConfig())
	if err != nil {
		return sessionScore{}, true, err
	}
	oracle := retrieval.SceneOracle{Scene: scen.Scene, Pred: cat.Match, MinOverlap: cfg.MinOverlap}
	// VS positions equal VS indices (Extract numbers sequentially), so
	// oracle relevance per position is ranking-comparable directly.
	relevant := make(map[int]bool)
	for pos, vs := range db {
		if oracle.Relevant(vs) {
			relevant[pos] = true
		}
	}
	score := sessionScore{ScenarioScore: ScenarioScore{
		Scenario: scen.Name,
		Source:   scen.Source,
		Relevant: len(relevant),
		Recall:   map[string]float64{},
		MAP:      map[string]float64{},
	}}
	identical := true
	var exactRounds []retrieval.Round
	for _, path := range cfg.Paths {
		engine, err := buildEngine(path, scen.Name, db, cfg)
		if err != nil {
			return sessionScore{}, true, err
		}
		sess := retrieval.Session{DB: db, Oracle: oracle, TopK: cfg.TopK}
		res, err := sess.Run(engine, cfg.Rounds)
		if err != nil {
			return sessionScore{}, true, fmt.Errorf("path %s: %w", path, err)
		}
		final := res.Rounds[len(res.Rounds)-1]
		score.Recall[path] = RecallAtK(final.Ranking, relevant, cfg.K)
		score.MAP[path] = MAP(final.Ranking, relevant)
		switch path {
		case PathExact:
			exactRounds = res.Rounds
		case PathCandidate:
			if exactRounds == nil {
				break
			}
			for r := range res.Rounds {
				if !equalInts(res.Rounds[r].Ranking, exactRounds[r].Ranking) {
					identical = false
				}
			}
		}
	}
	return score, identical, nil
}

// buildEngine constructs the serving-path engine for one database.
// Every path re-ranks through a MIL engine, exactly as a serving
// session would.
func buildEngine(path, clip string, db []window.VS, cfg RunConfig) (retrieval.Engine, error) {
	mile := retrieval.MILEngine{}
	switch path {
	case PathExact:
		return mile, nil
	case PathCandidate:
		// C = N through the unsharded (S = 1) pruned engine: the
		// candidate layer's exactness identity — the probe machinery
		// runs, the ranking must match exact bit for bit.
		bi, err := index.Build(db, index.KindVPTree, index.Options{})
		if err != nil {
			return nil, err
		}
		return wholeClip(mile, db, bi, len(db)), nil
	case PathQuantized:
		// VP-tree probing over PQ codes at C < N: the probe is lossy,
		// the re-rank exact — recall floors measure what pruning costs.
		bi, err := index.Build(db, index.KindVPTree, index.Options{Quant: index.QuantPQ})
		if err != nil {
			return nil, err
		}
		c := 3 * len(db) / 4
		if min := 2 * cfg.TopK; c < min {
			c = min
		}
		return wholeClip(mile, db, bi, c), nil
	case PathSharded:
		ring := shard.NewRing(cfg.Shards)
		parts := shard.PartitionVS(ring, clip, db)
		probers := make([]shard.Prober, len(parts))
		for i, part := range parts {
			if len(part.VSs) == 0 {
				probers[i] = shard.LocalProber{}
				continue
			}
			bi, err := index.Build(part.VSs, index.KindVPTree, index.Options{})
			if err != nil {
				return nil, err
			}
			probers[i] = shard.LocalProber{VSs: part.VSs, Pos: part.Pos, Index: bi}
		}
		// C = N: completion hits reassemble every partition, so the
		// scatter–gather ranking reproduces the unsharded exact one.
		return &shard.Engine{Inner: mile, Probers: probers, C: len(db)}, nil
	default:
		return nil, fmt.Errorf("retbench: unknown path %q", path)
	}
}

// wholeClip is the pruned engine an unsharded server runs: one shard
// over the whole database and its index.
func wholeClip(inner retrieval.Engine, db []window.VS, bi *index.BagIndex, c int) *shard.Engine {
	return &shard.Engine{Inner: inner, Probers: []shard.Prober{shard.LocalProber{VSs: db, Index: bi}}, C: c}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
