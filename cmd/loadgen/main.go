// Command loadgen drives a running query service (cmd/serve) with
// closed-loop synthetic oracle sessions: each concurrent client seeds
// a query, judges the returned top-k against the clip's incident
// ground truth, posts feedback, and repeats — the paper's user study
// as a load test. The run's throughput and client-side latency
// percentiles are written as JSON, to stdout unless -o names a file.
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8080 -demo
//	loadgen -url http://127.0.0.1:8080 -db db.gob -clip tunnel -sessions 32 -o report.json
//	loadgen -url http://coordinator -demo -coordinator -shards http://w0,http://w1
//	loadgen -url http://127.0.0.1:8080 -live -duration 20s
//	loadgen -url http://127.0.0.1:8080 -demo -predicate demo -topk 10
//
// The ground truth must describe the same clip the server ranks: pass
// the catalog via -db, or -demo (with the matching -demo-seed) when
// the server runs in demo mode. Exits nonzero when any round is
// dropped or comes back empty, so CI can assert on the exit code.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"milvideo/internal/predicate"
	"milvideo/internal/server"
	"milvideo/internal/videodb"
)

// output is the JSON loadgen writes (the shape of the committed
// BENCH_3.json): run metadata around the generator's report.
type output struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	URL        string `json:"url"`
	Clip       string `json:"clip"`
	Engine     string `json:"engine"`
	TopK       int    `json:"topk"`
	Index      string `json:"index,omitempty"`
	Candidates int    `json:"candidates,omitempty"`
	Churn      bool   `json:"churn,omitempty"`
	Live       bool   `json:"live,omitempty"`
	// Predicates summarizes the structured queries a -predicate run
	// seeded its sessions with.
	Predicates []string `json:"predicates,omitempty"`
	// Coordinator marks a run against a cluster coordinator; Shards
	// lists the worker URLs whose stats the report snapshots.
	Coordinator bool           `json:"coordinator,omitempty"`
	Shards      []string       `json:"shards,omitempty"`
	Report      *server.Report `json:"report"`
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "query service base URL")
	dbPath := flag.String("db", "", "catalog file supplying the ground truth oracle")
	demo := flag.Bool("demo", false, "judge against the built-in demo catalog (server runs -demo)")
	demoSeed := flag.Int64("demo-seed", 1, "seed for the demo catalog (must match the server's)")
	demoScale := flag.Int("demo-scale", 1, "demo catalog size multiplier (must match the server's)")
	clip := flag.String("clip", server.DemoClip, "clip to query")
	engine := flag.String("engine", "", "ranking engine (empty = server default)")
	indexKind := flag.String("index", "", `candidate index sessions request ("vptree", "ivf", "exact", empty = server default)`)
	candidates := flag.Int("candidates", 0, "candidate-set size C for indexed sessions (0 = server default)")
	sessions := flag.Int("sessions", 32, "concurrent sessions")
	rounds := flag.Int("rounds", 5, "rounds per session including the initial one")
	topK := flag.Int("topk", 8, "results per round (0 = server default)")
	pred := flag.String("predicate", "", `seed sessions with structured predicate queries: "demo" cycles the canned demo mix, anything else is one inline JSON AST`)
	minRecall := flag.Float64("min-recall", 0, "with -predicate: fail unless round-0 recall reaches this and feedback never loses ground")
	churn := flag.Bool("churn", false, "interleave catalog ingests/removals with the query load (exercises incremental index maintenance)")
	live := flag.Bool("live", false, "drive a server running -ingest: loop sessions over the live feed clip for -duration (no ground truth needed)")
	duration := flag.Duration("duration", 20*time.Second, "live run length")
	coordinator := flag.Bool("coordinator", false, "target is a cluster coordinator: print its per-shard scatter breakdown after the run")
	shards := flag.String("shards", "", "comma-separated shard-worker URLs to snapshot per-shard stats from after the run")
	out := flag.String("o", "-", "output path ('-' for stdout)")
	flag.Parse()

	var shardURLs []string
	for _, u := range strings.Split(*shards, ",") {
		if u = strings.TrimSpace(u); u != "" {
			shardURLs = append(shardURLs, u)
		}
	}
	if *live {
		// The live feed is the default target unless -clip was given
		// explicitly.
		clipSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "clip" {
				clipSet = true
			}
		})
		if !clipSet {
			*clip = "live"
		}
	}
	if err := run(*url, *dbPath, *demo, *demoSeed, *demoScale, *clip, *engine, *indexKind, *pred, *minRecall, *candidates, *sessions, *rounds, *topK, *churn, *coordinator, *live, *duration, shardURLs, *out); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(url, dbPath string, demo bool, demoSeed int64, demoScale int, clip, engine, indexKind, pred string, minRecall float64, candidates, sessions, rounds, topK int, churn, coordinator, live bool, duration time.Duration, shardURLs []string, out string) error {
	var preds []*predicate.Node
	if pred != "" {
		if live {
			return errors.New("-predicate needs a static catalog with ground truth, not -live")
		}
		if pred == "demo" {
			preds = server.DemoPredicates()
		} else {
			n, err := predicate.Decode([]byte(pred))
			if err != nil {
				return fmt.Errorf("-predicate: %w", err)
			}
			preds = []*predicate.Node{n}
		}
	}
	var judge server.Judge
	totalRelevant := 0
	if !live {
		// A static run judges against stored ground truth; a live feed
		// has none (the generator installs its stand-in).
		var rec *videodb.ClipRecord
		var err error
		switch {
		case demo && dbPath != "":
			return errors.New("-db and -demo are mutually exclusive")
		case demo:
			if rec, err = server.ScaledDemoRecord(demoSeed, demoScale); err != nil {
				return err
			}
			if rec.Name != clip {
				return fmt.Errorf("demo catalog has clip %q, not %q", rec.Name, clip)
			}
		case dbPath != "":
			db, err := videodb.LoadFile(dbPath)
			if err != nil {
				return err
			}
			if rec, err = db.Clip(clip); err != nil {
				return err
			}
		default:
			return errors.New("need -db <catalog> or -demo for the ground truth")
		}
		if judge, err = server.JudgeFromRecord(rec, nil); err != nil {
			return err
		}
		totalRelevant = server.RelevantVSCount(rec, judge)
	}

	lg := &server.LoadGen{
		Client:        &server.Client{BaseURL: url},
		Clip:          clip,
		Engine:        engine,
		Sessions:      sessions,
		Rounds:        rounds,
		TopK:          topK,
		Index:         indexKind,
		Candidates:    candidates,
		Judge:         judge,
		Predicates:    preds,
		TotalRelevant: totalRelevant,
		Churn:         churn,
		ShardURLs:     shardURLs,
		Live:          live,
		Duration:      duration,
	}
	if live {
		fmt.Fprintf(os.Stderr, "loadgen: %d live sessions against %s (feed clip %q) for %s\n",
			sessions, url, clip, duration)
	} else {
		fmt.Fprintf(os.Stderr, "loadgen: %d sessions × %d rounds against %s (clip %q)\n",
			sessions, rounds, url, clip)
	}
	rep, err := lg.Run(context.Background())
	if err != nil {
		return err
	}

	res := output{
		Generated:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		URL:         url,
		Clip:        clip,
		Engine:      engine,
		TopK:        topK,
		Index:       indexKind,
		Candidates:  candidates,
		Churn:       churn,
		Live:        live,
		Coordinator: coordinator,
		Shards:      shardURLs,
		Report:      rep,
	}
	for _, p := range preds {
		res.Predicates = append(res.Predicates, p.Summary())
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	} else {
		fmt.Println(out)
	}

	attempted := sessions * rounds
	if live {
		// A live run is bounded by -duration, not by -rounds.
		attempted = rep.RoundsServed + rep.DroppedRounds
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d/%d rounds served in %.2fs (%.1f rounds/s), final accuracy %.1f%%\n",
		rep.RoundsServed, attempted, rep.DurationSec, rep.RoundsPerSec, rep.FinalAccuracyMean*100)
	if len(rep.RoundRecall) > 0 {
		parts := make([]string, len(rep.RoundRecall))
		for r, v := range rep.RoundRecall {
			parts[r] = fmt.Sprintf("%.2f", v)
		}
		fmt.Fprintf(os.Stderr, "loadgen: round recall vs %d ground-truth incidents: %s\n",
			totalRelevant, strings.Join(parts, " "))
	}
	for _, op := range []string{"query", "feedback", "ranking"} {
		if st, ok := rep.Latency[op]; ok {
			fmt.Fprintf(os.Stderr, "loadgen:   %-8s p50 %6.2fms  p90 %6.2fms  p99 %6.2fms  max %6.2fms  (n=%d)\n",
				op, st.P50Ms, st.P90Ms, st.P99Ms, st.MaxMs, st.Count)
		}
	}
	if churn {
		fmt.Fprintf(os.Stderr, "loadgen: churn applied %d catalog mutations during the run\n", rep.MutationsApplied)
	}
	if live {
		st := rep.ServerStats
		if st == nil || st.Ingest == nil {
			return errors.New("live run but the server reported no ingest daemon stats")
		}
		ig := st.Ingest
		fmt.Fprintf(os.Stderr, "loadgen: ingest committed %d segments (%d live, %d evicted in %d evictions, %d compactions)\n",
			ig.Committed, ig.LiveSegments, ig.EvictedSegments, ig.Evictions, ig.Compactions)
		fmt.Fprintf(os.Stderr, "loadgen: staleness p50 %.0fms  p99 %.0fms  max %.0fms  (bound %dms, %d violations)\n",
			ig.Staleness.P50Ms, ig.Staleness.P99Ms, ig.Staleness.MaxMs, ig.MaxStalenessMs, ig.StalenessViolations)
		if st.Live != nil {
			fmt.Fprintf(os.Stderr, "loadgen: live rounds %d (%d stale-race retries)\n", st.Live.Rounds, st.Live.Retries)
		}
	}
	printShardBreakdown(rep, coordinator, shardURLs)
	if rep.DroppedRounds > 0 {
		return fmt.Errorf("%d rounds dropped (first errors: %v)", rep.DroppedRounds, rep.Errors)
	}
	if rep.EmptyRankings > 0 {
		return fmt.Errorf("%d rounds returned empty rankings", rep.EmptyRankings)
	}
	if minRecall > 0 {
		if len(preds) == 0 {
			return errors.New("-min-recall needs -predicate sessions to judge")
		}
		if len(rep.RoundRecall) == 0 {
			return errors.New("-min-recall set but the run produced no recall series")
		}
		if rep.RoundRecall[0] < minRecall {
			return fmt.Errorf("predicate round-0 recall %.2f below the %.2f floor", rep.RoundRecall[0], minRecall)
		}
		for r := 1; r < len(rep.RoundRecall); r++ {
			if rep.RoundRecall[r] < rep.RoundRecall[r-1] {
				return fmt.Errorf("feedback lost recall at round %d: %.2f -> %.2f",
					r, rep.RoundRecall[r-1], rep.RoundRecall[r])
			}
		}
	}
	if live {
		ig := rep.ServerStats.Ingest
		if ig.Staleness.P99Ms > float64(ig.MaxStalenessMs) {
			return fmt.Errorf("queryable staleness p99 %.0fms exceeds the %dms bound",
				ig.Staleness.P99Ms, ig.MaxStalenessMs)
		}
	}
	return nil
}

// printShardBreakdown summarizes a cluster run on stderr: the
// coordinator's round accounting (the index block) with its scatter
// and merge time (the shard block) and per-shard scatter latency,
// plus each polled worker's probe counters.
func printShardBreakdown(rep *server.Report, coordinator bool, shardURLs []string) {
	if coordinator && rep.ServerStats != nil && rep.ServerStats.Shard != nil {
		ix, sh := rep.ServerStats.Index, rep.ServerStats.Shard
		fmt.Fprintf(os.Stderr, "loadgen: pruned %d rounds (%d full, %d partial) re-ranked %d candidates  scatter %.1fms merge %.1fms total\n",
			ix.PrunedRounds, ix.FullRounds, sh.PartialRounds, ix.CandidatesRanked, sh.ScatterMsTotal, sh.MergeMsTotal)
	}
	if coordinator && rep.ServerStats != nil && rep.ServerStats.Cluster != nil {
		cl := rep.ServerStats.Cluster
		fmt.Fprintf(os.Stderr, "loadgen: cluster %d/%d shards reachable, %d scatter probes served\n",
			cl.Reachable, cl.Shards, cl.ScatterServed)
		for i, n := range cl.PerShard {
			fmt.Fprintf(os.Stderr, "loadgen:   shard %d %-24s p50 %6.2fms  p90 %6.2fms  p99 %6.2fms  (n=%d, timeouts %d, errors %d)\n",
				i, n.URL, n.Scatter.P50Ms, n.Scatter.P90Ms, n.Scatter.P99Ms, n.Scatter.Count, n.Timeouts, n.Errors)
		}
	}
	for i, st := range rep.ShardStats {
		u := ""
		if i < len(shardURLs) {
			u = shardURLs[i]
		}
		if st == nil {
			fmt.Fprintf(os.Stderr, "loadgen:   worker %d %-24s unreachable\n", i, u)
			continue
		}
		served := int64(0)
		if st.Shard != nil {
			served = st.Shard.ScatterServed
		}
		fmt.Fprintf(os.Stderr, "loadgen:   worker %d %-24s scatter_served %d  builds %d  applies %d  tombstones %d\n",
			i, u, served, st.Index.Builds, st.Index.IncrementalApplies, st.Index.Tombstones)
	}
}
