// Command serve runs the interactive retrieval query service: the
// paper's relevance-feedback loop (query → top-k → feedback →
// One-class SVM re-rank) exposed as a concurrent, stateful JSON API
// over a videodb catalog.
//
// Usage:
//
//	serve -db db.gob                       # serve a stored catalog
//	serve -demo                            # built-in synthetic catalog
//	serve -db db.gob -addr 127.0.0.1:0     # ephemeral port (printed)
//	serve -demo -index vptree              # route sessions through the
//	                                       # candidate index by default
//	serve -demo -index vptree -quant pq    # store PQ codes in the
//	                                       # index (exact re-rank)
//	serve -demo -local-shards 4            # in-process sharded serving:
//	                                       # scatter–gather over 4 shards
//	serve -demo -shard 0/3                 # cluster worker: serve shard
//	                                       # 0 of a 3-way partition
//	serve -demo -shards u0,u1,u2           # cluster coordinator over
//	                                       # three worker URLs
//	serve -ingest -snapshot live.db        # always-on: live ingest
//	                                       # daemon feeds the catalog
//
// The process drains in-flight re-ranks and exits cleanly on SIGINT /
// SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"milvideo/internal/faults"
	"milvideo/internal/ingestd"
	"milvideo/internal/server"
	"milvideo/internal/shard"
	"milvideo/internal/videodb"
)

// options collects the flag values run needs.
type options struct {
	addr, dbPath  string
	demo          bool
	demoSeed      int64
	demoScale     int
	maxSessions   int
	ttl, timeout  time.Duration
	workers, topK int
	indexKind     string
	quant         string
	candidates    int
	maxBody       int64
	recover       bool

	// Sharded serving: -local-shards partitions in-process; -shard
	// "i/n" makes this process cluster worker i of n (its catalog is
	// filtered to the partition it owns); -shards lists worker URLs
	// and makes this process the cluster coordinator.
	localShards   int
	shardSpec     string
	shardURLs     string
	shardTimeout  time.Duration
	savePartition string

	// Always-on ingest: -ingest attaches a live ingest daemon whose
	// feed clip is committed, indexed and retired while the server
	// keeps serving sessions.
	ingest         bool
	ingestSource   string
	ingestDir      string
	ingestInterval time.Duration
	ingestFrames   int
	ingestSeed     int64
	ingestWorkers  int
	maxStaleness   time.Duration
	retainSegments int
	retainTTL      time.Duration
	snapshotPath   string
	snapshotEvery  time.Duration

	// Chaos flags: deterministic fault injection for resilience
	// drills. All rates zero (the default) leaves the server provably
	// untouched.
	faultSeed     int64
	faultSlowRate float64
	faultSlowDur  time.Duration
	faultFailRate float64

	faultSlowShardRate float64
	faultSlowShardDur  time.Duration
	faultFailShardRate float64

	faultAdmitDrop    float64
	faultCommitFail   float64
	faultSnapshotFail float64
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address (port 0 picks an ephemeral port)")
	flag.StringVar(&o.dbPath, "db", "", "videodb catalog file to serve")
	flag.BoolVar(&o.demo, "demo", false, "serve the built-in synthetic demo catalog instead of -db")
	flag.Int64Var(&o.demoSeed, "demo-seed", 1, "seed for the demo catalog")
	flag.IntVar(&o.demoScale, "demo-scale", 1, "demo catalog size multiplier (1 = 48 VSs)")
	flag.IntVar(&o.maxSessions, "max-sessions", 256, "live-session cap (LRU eviction beyond it)")
	flag.DurationVar(&o.ttl, "ttl", 15*time.Minute, "idle-session expiry")
	flag.IntVar(&o.workers, "workers", 0, "concurrent re-rank bound (0 = GOMAXPROCS)")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-request ranking timeout")
	flag.IntVar(&o.topK, "topk", 20, "default results per round")
	flag.StringVar(&o.indexKind, "index", "", `default candidate index for sessions ("vptree", or empty for exact)`)
	flag.StringVar(&o.quant, "quant", "", `instance-feature quantization for candidate indexes ("pq", or empty/"none" for exact float probing)`)
	flag.IntVar(&o.candidates, "candidates", 64, "default candidate-set size C for indexed sessions")
	flag.Int64Var(&o.maxBody, "max-body", 1<<20, "request-body size cap in bytes (413 beyond it)")
	flag.BoolVar(&o.recover, "recover", false, "load -db in recovery mode, skipping corrupt records")
	flag.IntVar(&o.localShards, "local-shards", 0, "serve indexed sessions through S in-process shards (0/1 = unsharded)")
	flag.StringVar(&o.shardSpec, "shard", "", `run as cluster shard worker "i/n" (serves partition i of an n-way split)`)
	flag.StringVar(&o.shardURLs, "shards", "", "run as cluster coordinator over these comma-separated worker URLs")
	flag.DurationVar(&o.shardTimeout, "shard-timeout", 10*time.Second, "per-shard probe deadline for scattered rounds")
	flag.StringVar(&o.savePartition, "save-partition", "", "with -shard: write this worker's partitioned catalog to the path and exit")
	flag.BoolVar(&o.ingest, "ingest", false, "run an always-on ingest daemon feeding the live clip (works with an empty catalog)")
	flag.StringVar(&o.ingestSource, "ingest-source", "sim", `ingest clip source: "sim" (synthetic traffic) or "dir" (watch -ingest-dir)`)
	flag.StringVar(&o.ingestDir, "ingest-dir", "", "directory the dir source watches for *.scene.json files, each a JSON-encoded sim.Scene")
	flag.DurationVar(&o.ingestInterval, "ingest-interval", 2*time.Second, "sim source: delay between segments; dir source: scan interval")
	flag.IntVar(&o.ingestFrames, "ingest-frames", 100, "sim source: frames per synthetic segment")
	flag.Int64Var(&o.ingestSeed, "ingest-seed", 1, "sim source: scenario seed")
	flag.IntVar(&o.ingestWorkers, "ingest-workers", 2, "concurrent segment-processing workers")
	flag.DurationVar(&o.maxStaleness, "max-staleness", 5*time.Second, "queryable-staleness objective (arrival to index-applied)")
	flag.IntVar(&o.retainSegments, "retain-segments", 16, "retention: live feed segments kept before eviction")
	flag.DurationVar(&o.retainTTL, "retain-ttl", 0, "retention: evict segments older than this (0 = count-based only)")
	flag.StringVar(&o.snapshotPath, "snapshot", "", "periodic checksummed catalog snapshot path (restart recovers from it)")
	flag.DurationVar(&o.snapshotEvery, "snapshot-every", 10*time.Second, "snapshot interval")
	flag.Int64Var(&o.faultSeed, "fault-seed", 1, "chaos: fault-schedule seed")
	flag.Float64Var(&o.faultSlowRate, "fault-slow", 0, "chaos: injected slow re-rank rate [0,1]")
	flag.DurationVar(&o.faultSlowDur, "fault-slow-dur", 50*time.Millisecond, "chaos: injected stall duration")
	flag.Float64Var(&o.faultFailRate, "fault-fail", 0, "chaos: injected failed re-rank rate [0,1]")
	flag.Float64Var(&o.faultSlowShardRate, "fault-slow-shard", 0, "chaos: injected slow shard-probe rate [0,1]")
	flag.DurationVar(&o.faultSlowShardDur, "fault-slow-shard-dur", 50*time.Millisecond, "chaos: injected shard stall duration")
	flag.Float64Var(&o.faultFailShardRate, "fault-fail-shard", 0, "chaos: injected failed shard-probe rate [0,1]")
	flag.Float64Var(&o.faultAdmitDrop, "fault-admit-drop", 0, "chaos: ingest admission shed rate [0,1]")
	flag.Float64Var(&o.faultCommitFail, "fault-commit-fail", 0, "chaos: transient ingest commit failure rate [0,1]")
	flag.Float64Var(&o.faultSnapshotFail, "fault-snapshot-fail", 0, "chaos: ingest snapshot failure rate [0,1]")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// parseShardSpec parses "i/n" into (index, count).
func parseShardSpec(spec string) (int, int, error) {
	var idx, cnt int
	if n, err := fmt.Sscanf(spec, "%d/%d", &idx, &cnt); n != 2 || err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q (want \"i/n\", e.g. 0/3)", spec)
	}
	if cnt < 2 || idx < 0 || idx >= cnt {
		return 0, 0, fmt.Errorf("bad -shard %q: index must be in 0..n-1 with n >= 2", spec)
	}
	return idx, cnt, nil
}

func run(o options) error {
	shardIdx, shardCnt := 0, 0
	if o.shardSpec != "" {
		if o.shardURLs != "" {
			return errors.New("-shard and -shards are mutually exclusive (worker vs coordinator)")
		}
		if o.localShards > 1 {
			return errors.New("-shard and -local-shards are mutually exclusive")
		}
		var err error
		if shardIdx, shardCnt, err = parseShardSpec(o.shardSpec); err != nil {
			return err
		}
	}
	if o.savePartition != "" && shardCnt == 0 {
		return errors.New("-save-partition requires -shard i/n")
	}
	if o.ingest && (o.shardSpec != "" || o.shardURLs != "" || o.localShards > 1) {
		return errors.New("-ingest is incompatible with sharded serving (-shard/-shards/-local-shards)")
	}

	var db *videodb.DB
	var err error
	switch {
	case o.demo && o.dbPath != "":
		return errors.New("-db and -demo are mutually exclusive")
	case o.demo:
		rec, err := server.ScaledDemoRecord(o.demoSeed, o.demoScale)
		if err != nil {
			return err
		}
		db = videodb.New()
		if err := db.Add(rec); err != nil {
			return err
		}
	case o.dbPath != "" && o.recover:
		var rep videodb.RecoveryReport
		if db, rep, err = videodb.LoadFileRecovering(o.dbPath); err != nil {
			return err
		}
		if !rep.Clean() {
			fmt.Printf("serve: recovered catalog: %v\n", rep)
			for _, sk := range rep.Skipped {
				fmt.Printf("serve:   skipped record %d (%s): %v\n", sk.Index, sk.Name, sk.Err)
			}
		}
	case o.dbPath != "":
		if db, err = videodb.LoadFile(o.dbPath); err != nil {
			return err
		}
	case o.ingest:
		// An always-on deployment can start from nothing: the daemon's
		// first commit publishes the feed clip.
		db = videodb.New()
	default:
		return errors.New("need -db <catalog>, -demo, or -ingest")
	}

	if shardCnt > 0 {
		// Cluster worker: keep only the partition this shard owns.
		// Each worker's catalog is its own videodb.DB behind the same
		// v2 checksummed snapshot format, so -save-partition gives the
		// shard a private recoverable persistence file for free.
		ring := shard.NewRing(shardCnt)
		part := videodb.New()
		for _, name := range db.Names() {
			rec, err := db.Clip(name)
			if err != nil {
				return err
			}
			if prec := shard.PartitionRecord(ring, rec, shardIdx); prec != nil {
				if err := part.Add(prec); err != nil {
					return err
				}
			}
		}
		fmt.Printf("serve: shard %d/%d owns %d of %d clips\n", shardIdx, shardCnt, part.Len(), db.Len())
		db = part
		if o.savePartition != "" {
			if err := db.SaveFile(o.savePartition); err != nil {
				return err
			}
			fmt.Printf("serve: wrote shard %d/%d partition to %s\n", shardIdx, shardCnt, o.savePartition)
			return nil
		}
	}

	var inj *faults.Injector
	if o.faultSlowRate > 0 || o.faultFailRate > 0 || o.faultSlowShardRate > 0 || o.faultFailShardRate > 0 ||
		o.faultAdmitDrop > 0 || o.faultCommitFail > 0 || o.faultSnapshotFail > 0 {
		inj = faults.New(faults.Config{
			Seed:          o.faultSeed,
			SlowRerank:    o.faultSlowRate,
			SlowRerankDur: o.faultSlowDur,
			FailRerank:    o.faultFailRate,
			SlowShard:     o.faultSlowShardRate,
			SlowShardDur:  o.faultSlowShardDur,
			FailShard:     o.faultFailShardRate,
			AdmitDrop:     o.faultAdmitDrop,
			CommitFail:    o.faultCommitFail,
			SnapshotFail:  o.faultSnapshotFail,
		})
		fmt.Printf("serve: chaos injector armed (seed %d, slow %g, fail %g, slow-shard %g, fail-shard %g, admit-drop %g, commit-fail %g, snapshot-fail %g)\n",
			o.faultSeed, o.faultSlowRate, o.faultFailRate, o.faultSlowShardRate, o.faultFailShardRate,
			o.faultAdmitDrop, o.faultCommitFail, o.faultSnapshotFail)
	}

	var urls []string
	if o.shardURLs != "" {
		for _, u := range strings.Split(o.shardURLs, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			return errors.New("-shards given but no worker URLs parsed")
		}
		fmt.Printf("serve: coordinator over %d shard workers\n", len(urls))
	}
	if o.localShards > 1 {
		fmt.Printf("serve: in-process sharding over %d shards\n", o.localShards)
	}

	var daemon *ingestd.Daemon
	if o.ingest {
		var src ingestd.Source
		switch o.ingestSource {
		case "sim":
			src = &ingestd.SimSource{
				Frames:   o.ingestFrames,
				Seed:     o.ingestSeed,
				Interval: o.ingestInterval,
			}
		case "dir":
			if o.ingestDir == "" {
				return errors.New("-ingest-source dir needs -ingest-dir")
			}
			src = &ingestd.DirSource{Dir: o.ingestDir, Poll: o.ingestInterval}
		default:
			return fmt.Errorf("unknown -ingest-source %q (want sim or dir)", o.ingestSource)
		}
		daemon, err = ingestd.New(ingestd.Config{
			DB:             db,
			Source:         src,
			Workers:        o.ingestWorkers,
			MaxStaleness:   o.maxStaleness,
			RetainSegments: o.retainSegments,
			RetainTTL:      o.retainTTL,
			SnapshotPath:   o.snapshotPath,
			SnapshotEvery:  o.snapshotEvery,
			Faults:         inj,
			Logf: func(format string, args ...any) {
				fmt.Printf("serve: ingest: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		fmt.Printf("serve: ingest daemon feeding clip %q (source %s, max staleness %s, retain %d segments)\n",
			daemon.FeedClip(), o.ingestSource, o.maxStaleness, o.retainSegments)
	}

	srv, err := server.New(server.Config{
		DB:                db,
		MaxSessions:       o.maxSessions,
		SessionTTL:        o.ttl,
		RerankWorkers:     o.workers,
		RequestTimeout:    o.timeout,
		DefaultTopK:       o.topK,
		DefaultIndex:      o.indexKind,
		DefaultCandidates: o.candidates,
		Quant:             o.quant,
		MaxBodyBytes:      o.maxBody,
		Faults:            inj,
		Shards:            o.localShards,
		ShardTimeout:      o.shardTimeout,
		ShardURLs:         urls,
		PartitionIndex:    shardIdx,
		PartitionCount:    shardCnt,
		Ingest:            daemon,
	})
	if err != nil {
		return err
	}
	if daemon != nil {
		if err := daemon.Start(context.Background(), srv); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	fmt.Printf("serve: listening on http://%s (%d clips)\n", ln.Addr(), db.Len())
	for _, n := range db.Names() {
		rec, err := db.Clip(n)
		if err != nil {
			return err
		}
		s := rec.Stats()
		fmt.Printf("serve:   clip %-16s %5d frames  %3d VSs  %3d TSs\n", n, s.Frames, s.VSCount, s.TSCount)
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		fmt.Printf("serve: %v — shutting down\n", s)
	}

	// Stop the feed first (its final snapshot lands before we go),
	// stop accepting, finish in-flight HTTP, then drain the re-rank
	// pool so no SVM training is cut off mid-round.
	if daemon != nil {
		daemon.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	srv.Close()
	fmt.Println("serve: drained, bye")
	return nil
}
