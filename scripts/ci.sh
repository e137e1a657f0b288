#!/usr/bin/env bash
# CI gate: formatting, vet, the tier-1 build/test pair, the benchmark
# module's vet and self-tests (perfbench/, a nested module that
# `go test ./...` skips), a race-detector pass over the internal
# packages (the concurrent paths: streaming ingestion, the ingest
# daemon, videodb under concurrent mutation and snapshots, pooled
# segmentation scratch, kernel Gram workers, the query-service session
# store and load generator, the candidate-index build/probe paths), an explicit
# candidate-index recall gate (the VP-tree over float rows and over PQ
# codes on the demo catalog: recall@10 must be 1.0 at C=N and ≥ 0.9 at
# C=N/4), the chaos conformance suite under -race (seeded fault
# schedules across ingest, persistence and the query service), fuzz
# smoke legs for the snapshot decoder, the HTTP API, exact VP-tree
# k-NN, the shared-threshold multi-probe candidate pass, the
# stored-heuristic-order re-rank tail, the word-parallel
# segmentation passes against their per-pixel oracles and the VP-tree
# build against its reference build (every gated
# -run alternative and fuzz target must name an existing test, or the
# run fails), a statement-coverage floor over the internal packages, a
# one-iteration smoke of the ingest benchmarks (streaming and the
# sequential reference in internal/core), of per-frame vehicle
# extraction, of the stored-heuristic-order benchmarks (round 0,
# re-rank tail) and of the archive index build, an
# incremental-maintenance gate (an internal/index test: 20 whole-bag
# deltas, all absorbed without a rebuild), a live server smoke:
# cmd/serve (PQ-quantized probing) on an ephemeral port driven by
# cmd/loadgen sessions —
# exact, routed through the VP-tree candidate index, seeded from the
# canned predicate mix (round-0 recall@10 >= 0.9 against the staged
# incidents, never losing ground under MIL feedback), and under
# catalog churn — asserting zero dropped rounds, non-empty rankings,
# at least one incremental index apply, no forced rebuilds, and a
# clean drain, a predicate serving gate: the composed
# seq(stop∧region, go∧east∧region) query POSTed straight at
# /v1/query must put every staged incident in the top-10 and return
# byte-identical rankings on the exact path, through the unsharded
# (one-shard) pruned engine at C >= N, and scatter–gathered across 3
# in-process shards,
# a sharded-serving gate (scatter–gather at C=N permutation-identical
# to unsharded for every engine × shard count, C >= N rounds spending
# no distance evaluation, plus fault-injected shard degradation under
# -race), a cluster smoke:
# three shard workers plus a coordinator scattering over HTTP, driven
# by loadgen, losing no rounds and draining all four processes, and a
# daemon smoke: serve -ingest continuously committing, evicting,
# compacting and snapshotting the live feed under loadgen -live
# sessions that must lose no rounds and stay within the staleness
# bound, then recover the feed from the snapshot on restart.
set -euo pipefail
cd "$(dirname "$0")/.."

# Statement-coverage floor over ./internal/... . Re-measured 88.8%
# when the retrieval benchmark landed (the new sim spawners, event
# models, cross-camera stitcher and retbench runner all ship with
# their own tests); the floor leaves a little slack so innocuous
# refactors don't flake, while a test-free subsystem cannot land
# unnoticed.
COVERAGE_FLOOR=88.5

# require_run PATTERN PKG...: every |-alternative of a gated -run
# pattern must name at least one test in the leg's packages. `go test
# -run` passes with "no tests to run" when a pattern matches nothing,
# so a renamed or moved test would otherwise drop out of its gate
# silently.
require_run() {
    local pattern=$1 listed alt
    shift
    listed=$(go test -list '.*' "$@" | awk '!/^(ok|\?|FAIL)[ \t]/')
    IFS='|' read -ra alts <<<"$pattern"
    for alt in "${alts[@]}"; do
        grep -qE -- "$alt" <<<"$listed" || {
            echo "ci: -run alternative '$alt' matches no test in $*" >&2
            exit 1
        }
    done
}

# require_fuzz TARGET PKG: `go test -fuzz` of a target that does not
# exist also exits 0, so each fuzz-smoke target must be listed first.
# (The listing is captured before grep reads it: grep -q exiting early
# would break the pipe under pipefail.)
require_fuzz() {
    local listed
    listed=$(go test -list "^$1\$" "$2")
    grep -qx -- "$1" <<<"$listed" || {
        echo "ci: fuzz target $1 does not exist in $2" >&2
        exit 1
    }
}

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== build =="
go build ./...

echo "== test =="
go test ./...

echo "== benchmark module (perfbench: vet + self-tests, offline) =="
# perfbench imports the repository's packages through a replace
# directive, so an API change here can break it without failing the
# legs above. Same offline settings as perfbench/run.sh.
(
    cd perfbench
    export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
    go vet ./...
    go test ./...
)

echo "== race (internal: server, streaming ingestion, ingest daemon, videodb, pools, sweeps) =="
go test -race ./internal/...

echo "== index smoke (recall gates: C=N identity, C=N/4 >= 0.9; pinned C<N rankings and probe work; exact k-best and multi-probe; stored heuristic order) =="
# Besides the recall gates: pruned (C<N) session rankings must match
# their pinned hashes, the probe work behind them (probes, distance
# evaluations and re-ranked candidates of VP-tree+PQ sessions at
# S ∈ {1, 3} × C ∈ {150, 1200}) must match its pinned counts exactly,
# the heap-free k-best search must equal brute force, the
# shared-threshold multi-probe pass must equal independent
# per-probe searches (FuzzCandidatesExact's seed corpus) while
# spending fewer VP-tree evaluations, one probe scratch must serve
# indexes of any bag count, and the VP-tree build must reproduce its
# reference build's nodes, radii, leaves and codes byte for byte
# (TestVPTreeBuildMatchesRef). The stored heuristic order: the filtered
# re-rank tail must equal re-scoring and re-sorting the remainder
# (FuzzRerankUnionOrder's seed corpus), the candidate and sharded
# engines must rank the same with and without a stored order, every
# engine whose no-feedback ranking is the §5.3 order (MIL, Rocchio,
# EM-DD, MI-SVM) must rank the same through it and copy it in round 0,
# only indexed sessions may compute it (round 0 of an indexed MIL
# session does; exact and example-seeded ones do not), the server
# must reuse it by VS backing identity, never by length, and a pinned
# indexed session must keep the order and indexes it captured when a
# same-length Replace of its clip rebuilds them for new sessions
# (TestHeuristicOrderPinnedAcrossReplace, S ∈ {1, 3} × float/PQ). The
# TestCandidate tests check the pruned-ranking contract on the
# unsharded (one-shard) engine.
index_smoke='TestIndexSmokeRecall|TestQueryIndex|TestQueryPredicate|TestCandidate|TestVPTree|TestBagIndex|TestPrunedRankingGolden|TestPrunedRoundWork|TestSelectK|TestKBest|TestScratchReuse|TestRankByScore|TestMILRankPositiveBagsOnly|FuzzCandidatesExact|FuzzRerankUnionOrder|TestHeuristicOrder|TestShardedStoredOrder|TestOrderRanker'
index_pkgs=(./internal/server/ ./internal/retrieval/ ./internal/index/ ./internal/shard/)
require_run "$index_smoke" "${index_pkgs[@]}"
go test -race -count=1 -run "$index_smoke" "${index_pkgs[@]}"

echo "== chaos conformance (seeded fault schedules, -race) =="
require_run 'TestChaos' ./internal/testkit/
go test -race -count=1 -run 'TestChaos' ./internal/testkit/

echo "== sharded serving (C=N identity gate + shard chaos, -race) =="
# The merge contract: scatter–gather at C=N must be permutation-
# identical to the unsharded ranking for every engine × shard count, a
# C >= N round must scatter no probe vectors (zero distance
# evaluations, still failing on a stale index), and fault-injected
# shards must degrade to partial
# results with counters instead of failing queries. A stale index or
# an ended round context fails the round instead, counting no lost
# shard, and seeded rounds count only with the pruned round they
# scattered. /v1/scatter answers from the index the server's
# unsharded sessions share, and a server sharding in process refuses
# it with 400 (TestScatterWholeClipIndex).
sharded_legs='TestSharded|TestFullBudget|TestRing|TestPartition|TestProbeLocal|TestPerShard|TestSlowShard|TestFailedShard|TestAllShards|TestInjector|TestShardFault|TestInProcessSharded|TestScatter|TestCluster|TestLoadGenShard'
sharded_pkgs=(./internal/shard/ ./internal/server/ ./internal/faults/)
require_run "$sharded_legs" "${sharded_pkgs[@]}"
go test -race -count=1 -run "$sharded_legs" "${sharded_pkgs[@]}"

echo "== retrieval benchmark gate (pinned easy suite, -race) =="
# The graded incident-retrieval benchmark on its pinned suite: eight
# incident categories (accident, sudden-stop, speeding, u-turn,
# wrong-way, tailgating, near-miss, stalled) across tunnel,
# intersection and cross-camera scenarios. Every category's recall@10
# floor must hold on both exactness paths, the candidate C=N ranking
# must be identical to exact in every round, and zero sessions may
# fail or find an empty ground-truth set.
rbdir=$(mktemp -d)
go run -race ./cmd/retbench -tier easy -seed 1 -o "$rbdir/RETBENCH.json" >/dev/null
jq -e '.failed_sessions == 0' "$rbdir/RETBENCH.json" >/dev/null || {
    echo "retbench: failed or empty-ground-truth sessions" >&2
    cat "$rbdir/RETBENCH.json" >&2
    exit 1
}
jq -e '.rank_identical == true' "$rbdir/RETBENCH.json" >/dev/null || {
    echo "retbench: candidate C=N ranking diverged from exact" >&2
    cat "$rbdir/RETBENCH.json" >&2
    exit 1
}
jq -e '.categories | length == 8' "$rbdir/RETBENCH.json" >/dev/null || {
    echo "retbench: report does not cover all 8 incident categories" >&2
    cat "$rbdir/RETBENCH.json" >&2
    exit 1
}
jq -e 'all(.categories[]; .min_recall.exact >= 0.9 and .min_recall.candidate >= 0.9)' \
    "$rbdir/RETBENCH.json" >/dev/null || {
    echo "retbench: a category fell below the 0.9 recall@10 floor" >&2
    jq -r '.categories[] | "\(.name) exact=\(.min_recall.exact) candidate=\(.min_recall.candidate)"' \
        "$rbdir/RETBENCH.json" >&2
    exit 1
}
rm -rf "$rbdir"

echo "== fuzz smoke (snapshot decoder, predicate decoder, HTTP API, exact k-NN, multi-probe candidates, stored-order re-rank tail, word-parallel morphology, VP-tree build; 5s each) =="
# FuzzMorphology: ErodeInto, DilateInto and the fused subtraction must
# equal the per-pixel loops they replaced on any size, pixel values
# and dirty destination. FuzzVPTreeBuild: the VP-tree build must equal
# its reference build on small-integer point sets, where duplicates
# and distance ties are common.
for target in FuzzDBDecode:./internal/videodb/ FuzzPredicateDecode:./internal/predicate/ \
    FuzzQueryRequest:./internal/server/ FuzzKNNExact:./internal/index/ \
    FuzzCandidatesExact:./internal/index/ FuzzRerankUnionOrder:./internal/retrieval/ \
    FuzzMorphology:./internal/segment/ FuzzVPTreeBuild:./internal/index/; do
    require_fuzz "${target%%:*}" "${target#*:}"
    go test -run xxx -fuzz "${target%%:*}" -fuzztime 5s "${target#*:}"
done

echo "== coverage floor (internal packages, >= ${COVERAGE_FLOOR}%) =="
covdir=$(mktemp -d)
go test -count=1 -coverprofile="$covdir/cover.out" ./internal/... >/dev/null
total=$(go tool cover -func="$covdir/cover.out" | awk '/^total:/ {sub(/%/, "", $NF); print $NF}')
rm -rf "$covdir"
echo "total statement coverage: ${total}%"
awk -v got="$total" -v floor="$COVERAGE_FLOOR" 'BEGIN { exit !(got+0 >= floor+0) }' || {
    echo "coverage ${total}% fell below the ${COVERAGE_FLOOR}% floor" >&2
    exit 1
}

echo "== bench smoke (ingest, per-frame extraction) =="
# The streaming ingest benchmark and per-frame vehicle extraction live
# in the root package; the sequential reference
# pipeline and its benchmark live in internal/core's tests.
ingest_benches='BenchmarkIngestStreamClip|BenchmarkIngestSequentialClip|BenchmarkSegmentationPerFrame'
require_run "$ingest_benches" . ./internal/core/
go test -run xxx -bench "$ingest_benches" -benchtime 1x . ./internal/core/

echo "== bench smoke (stored heuristic order: round 0 and the re-rank tail) =="
# One iteration of each stored-order microbenchmark at archive shape
# (48,000 bags), stored against computed.
order_benches='BenchmarkRoundZero|BenchmarkRerankUnion'
require_run "$order_benches" ./internal/retrieval/
go test -run '^$' -bench "$order_benches" -benchtime 1x ./internal/retrieval/

echo "== bench smoke (archive index build) =="
# One VP-tree build of the archive catalog (ScaledDemoRecord(1, 1000):
# 48,000 VSs, 74,000 instances), with PQ codes and with float rows.
build_bench='BenchmarkIndexBuildArchive'
require_run "$build_bench" .
go test -run '^$' -bench "$build_bench" -benchtime 1x -benchmem .

echo "== bench smoke (incremental index maintenance) =="
# A built index (480 bags, default options) is driven through 20
# whole-bag deltas; every one must take the incremental path (applies
# == 20, zero rebuilds).
maint_test='^TestWholeBagDeltasApplyIncrementally$'
require_run "$maint_test" ./internal/index/
go test -count=1 -run "$maint_test" ./internal/index/

echo "== server smoke (serve + loadgen) =="
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"; [ -n "${serve_pid:-}" ] && kill "$serve_pid" 2>/dev/null; for p in "${cluster_pids[@]:-}"; do [ -n "$p" ] && kill "$p" 2>/dev/null; done; true' EXIT
cluster_pids=()
go build -o "$smokedir/serve" ./cmd/serve
go build -o "$smokedir/loadgen" ./cmd/loadgen
# -quant pq makes every index the smoke server builds probe through
# PQ codes, so the live path exercises the compressed store end to end
# (the exact re-rank is unaffected).
"$smokedir/serve" -demo -addr 127.0.0.1:0 -quant pq >"$smokedir/serve.log" 2>&1 &
serve_pid=$!
url=""
for _ in $(seq 1 50); do
    url=$(sed -n 's/^serve: listening on \(http:\/\/[^ ]*\).*/\1/p' "$smokedir/serve.log")
    [ -n "$url" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$smokedir/serve.log" >&2; exit 1; }
    sleep 0.1
done
[ -n "$url" ] || { echo "serve never reported its address" >&2; cat "$smokedir/serve.log" >&2; exit 1; }
# loadgen exits nonzero on any dropped round or empty ranking; the
# second run routes every session through the VP-tree candidate index
# at C = 16, and the third interleaves catalog churn with indexed
# sessions.
"$smokedir/loadgen" -url "$url" -demo -sessions 4 -rounds 3 -o "$smokedir/smoke.json"
"$smokedir/loadgen" -url "$url" -demo -sessions 4 -rounds 3 -index vptree -candidates 16 -o "$smokedir/smoke-index.json"
# Predicate sessions: every worker seeds from the canned structured-
# query mix; loadgen itself exits nonzero unless round-0 recall@10
# against the staged incidents reaches 0.9 and feedback never loses
# ground from there.
"$smokedir/loadgen" -url "$url" -demo -sessions 6 -rounds 4 -topk 10 \
    -predicate demo -min-recall 0.9 -o "$smokedir/smoke-predicate.json"
# The composed acceptance query — seq(stop∧region, go∧east∧region,
# within 5s) — POSTed straight at /v1/query: the staged incidents
# (VSs 0–5 of the demo catalog) must all sit in the top-10, and the
# ranking must be byte-identical when the same session is routed
# through the unsharded pruned engine at C >= N (predicate-seeded
# probing).
pred_query='"predicate":{"op":"seq","a":{"op":"and","args":[{"op":"stop"},{"op":"region","rect":[0.25,0.25,0.75,0.75]}]},"b":{"op":"and","args":[{"op":"go"},{"op":"direction","heading":0},{"op":"region","rect":[0.25,0.25,0.75,0.75]}]},"within":5}'
curl -sf -H 'Content-Type: application/json' -d "{\"clip\":\"synth\",\"topk\":10,$pred_query}" \
    "$url/v1/query" >"$smokedir/pred-exact.json"
curl -sf -H 'Content-Type: application/json' \
    -d "{\"clip\":\"synth\",\"topk\":10,\"index\":\"vptree\",\"candidates\":64,$pred_query}" \
    "$url/v1/query" >"$smokedir/pred-cand.json"
jq -e '.engine | startswith("predicate:seq(")' "$smokedir/pred-exact.json" >/dev/null || {
    echo "predicate query was not served by a predicate engine" >&2
    cat "$smokedir/pred-exact.json" >&2
    exit 1
}
jq -e '.ranking[:10] as $head | all(range(0; 6); . as $vs | ($head | index($vs)) != null)' \
    "$smokedir/pred-exact.json" >/dev/null || {
    echo "composed predicate missed a staged incident in its top-10" >&2
    cat "$smokedir/pred-exact.json" >&2
    exit 1
}
[ "$(jq -c '.ranking' "$smokedir/pred-exact.json")" = "$(jq -c '.ranking' "$smokedir/pred-cand.json")" ] || {
    echo "predicate ranking diverges between exact and candidate C=N paths" >&2
    jq -c '.ranking' "$smokedir/pred-exact.json" >&2
    jq -c '.ranking' "$smokedir/pred-cand.json" >&2
    exit 1
}
"$smokedir/loadgen" -url "$url" -demo -sessions 4 -rounds 3 -index vptree -candidates 16 -churn -o "$smokedir/smoke-churn.json"
kill -INT "$serve_pid"
wait "$serve_pid"
serve_pid=""
grep -q "drained, bye" "$smokedir/serve.log" || { echo "serve did not drain cleanly" >&2; cat "$smokedir/serve.log" >&2; exit 1; }
grep -q '"rounds_served": 12' "$smokedir/smoke.json" || { echo "smoke run served fewer rounds than expected" >&2; cat "$smokedir/smoke.json" >&2; exit 1; }
# Both loadgen reports must show a loss-free run; on a drop, surface
# the server log alongside the report so the failure is diagnosable.
for report in "$smokedir/smoke.json" "$smokedir/smoke-index.json" "$smokedir/smoke-predicate.json" "$smokedir/smoke-churn.json"; do
    grep -q '"dropped_rounds": 0' "$report" || {
        echo "smoke run dropped rounds in $report" >&2
        cat "$report" >&2
        echo "--- serve log ---" >&2
        cat "$smokedir/serve.log" >&2
        exit 1
    }
done
# The churn run must have exercised incremental maintenance: at least
# one generation bump absorbed as a delta, and no forced rebuilds
# (churn never touches the queried clip's content).
grep -q '"incremental_applies": [1-9]' "$smokedir/smoke-churn.json" || {
    echo "churn smoke never took the incremental-apply path" >&2
    cat "$smokedir/smoke-churn.json" >&2
    exit 1
}
grep -q '"forced_rebuilds": 0' "$smokedir/smoke-churn.json" || {
    echo "churn smoke forced index rebuilds" >&2
    cat "$smokedir/smoke-churn.json" >&2
    exit 1
}
# The predicate report must carry the per-round recall series the
# -min-recall gate judged (its floor already ran inside loadgen).
grep -q '"round_recall"' "$smokedir/smoke-predicate.json" || {
    echo "predicate smoke report lacks the round-recall series" >&2
    cat "$smokedir/smoke-predicate.json" >&2
    exit 1
}

echo "== predicate smoke (in-process sharded serving identity) =="
# Third serving path for the same composed query: 3 in-process shards
# answer a predicate-seeded round at C = 64 >= N = 48, so no probe
# vector goes out, every shard returns its whole partition and the
# coordinator reassembles the full catalog — the ranking must match
# the exact path byte for byte, and the scatter must be accounted as
# seeded rounds (in the index block, where every shard count keeps its
# round counters).
"$smokedir/serve" -demo -addr 127.0.0.1:0 -quant pq -local-shards 3 \
    -index vptree -candidates 64 >"$smokedir/serve-shard.log" 2>&1 &
serve_pid=$!
shard_url=""
for _ in $(seq 1 50); do
    shard_url=$(sed -n 's/^serve: listening on \(http:\/\/[^ ]*\).*/\1/p' "$smokedir/serve-shard.log")
    [ -n "$shard_url" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$smokedir/serve-shard.log" >&2; exit 1; }
    sleep 0.1
done
[ -n "$shard_url" ] || { echo "sharded serve never reported its address" >&2; cat "$smokedir/serve-shard.log" >&2; exit 1; }
curl -sf -H 'Content-Type: application/json' -d "{\"clip\":\"synth\",\"topk\":10,$pred_query}" \
    "$shard_url/v1/query" >"$smokedir/pred-shard.json"
[ "$(jq -c '.ranking' "$smokedir/pred-exact.json")" = "$(jq -c '.ranking' "$smokedir/pred-shard.json")" ] || {
    echo "predicate ranking diverges between exact and sharded paths" >&2
    jq -c '.ranking' "$smokedir/pred-exact.json" >&2
    jq -c '.ranking' "$smokedir/pred-shard.json" >&2
    exit 1
}
curl -sf "$shard_url/v1/stats" >"$smokedir/pred-shard-stats.json"
jq -e '.index.seeded_rounds >= 1' "$smokedir/pred-shard-stats.json" >/dev/null || {
    echo "sharded predicate round was not accounted as a seeded scatter" >&2
    cat "$smokedir/pred-shard-stats.json" >&2
    exit 1
}
kill -INT "$serve_pid"
wait "$serve_pid"
serve_pid=""
grep -q "drained, bye" "$smokedir/serve-shard.log" || { echo "sharded serve did not drain cleanly" >&2; cat "$smokedir/serve-shard.log" >&2; exit 1; }

echo "== cluster smoke (3 shard workers + coordinator + loadgen) =="
# The N-process topology end to end: three serve workers each own one
# consistent-hash partition of the demo catalog, a coordinator
# scatters /v1/query probes to them over HTTP and re-ranks centrally,
# and a loadgen round trip through the coordinator must lose nothing.
# All four processes must drain cleanly on SIGINT.
cluster_pids=()
worker_urls=""
for i in 0 1 2; do
    "$smokedir/serve" -demo -shard "$i/3" -addr 127.0.0.1:0 >"$smokedir/worker$i.log" 2>&1 &
    cluster_pids+=($!)
done
for i in 0 1 2; do
    wurl=""
    for _ in $(seq 1 50); do
        wurl=$(sed -n 's/^serve: listening on \(http:\/\/[^ ]*\).*/\1/p' "$smokedir/worker$i.log")
        [ -n "$wurl" ] && break
        kill -0 "${cluster_pids[$i]}" 2>/dev/null || { cat "$smokedir/worker$i.log" >&2; exit 1; }
        sleep 0.1
    done
    [ -n "$wurl" ] || { echo "worker $i never reported its address" >&2; cat "$smokedir/worker$i.log" >&2; exit 1; }
    worker_urls="${worker_urls:+$worker_urls,}$wurl"
done
"$smokedir/serve" -demo -shards "$worker_urls" -index vptree -candidates 16 -addr 127.0.0.1:0 >"$smokedir/coord.log" 2>&1 &
cluster_pids+=($!)
coord_url=""
for _ in $(seq 1 50); do
    coord_url=$(sed -n 's/^serve: listening on \(http:\/\/[^ ]*\).*/\1/p' "$smokedir/coord.log")
    [ -n "$coord_url" ] && break
    kill -0 "${cluster_pids[3]}" 2>/dev/null || { cat "$smokedir/coord.log" >&2; exit 1; }
    sleep 0.1
done
[ -n "$coord_url" ] || { echo "coordinator never reported its address" >&2; cat "$smokedir/coord.log" >&2; exit 1; }
"$smokedir/loadgen" -url "$coord_url" -demo -sessions 4 -rounds 3 \
    -coordinator -shards "$worker_urls" -o "$smokedir/smoke-cluster.json"
grep -q '"dropped_rounds": 0' "$smokedir/smoke-cluster.json" || {
    echo "cluster smoke dropped rounds" >&2
    cat "$smokedir/smoke-cluster.json" >&2
    echo "--- coordinator log ---" >&2
    cat "$smokedir/coord.log" >&2
    exit 1
}
# The coordinator's report must carry its scatter telemetry: pruned
# rounds in the index block and a coordinator shard block.
jq -e '.report.server_stats.index.pruned_rounds >= 1 and .report.server_stats.shard.mode == "coordinator"' \
    "$smokedir/smoke-cluster.json" >/dev/null || {
    echo "cluster smoke report lacks scatter telemetry" >&2
    cat "$smokedir/smoke-cluster.json" >&2
    exit 1
}
for pid in "${cluster_pids[@]}"; do kill -INT "$pid"; done
for pid in "${cluster_pids[@]}"; do wait "$pid"; done
cluster_pids=()
for log in "$smokedir/coord.log" "$smokedir/worker0.log" "$smokedir/worker1.log" "$smokedir/worker2.log"; do
    grep -q "drained, bye" "$log" || { echo "$log did not drain cleanly" >&2; cat "$log" >&2; exit 1; }
done

echo "== daemon smoke (serve -ingest + loadgen -live) =="
# The always-on loop in two processes: a serve with an attached ingest
# daemon commits, evicts and snapshots the live feed while loadgen
# drives concurrent feedback sessions over it for 15s. loadgen itself
# exits nonzero on any dropped round, empty ranking, or a queryable-
# staleness p99 above the daemon's -max-staleness bound; on top of
# that the run must have aged segments out (>= 1 eviction), compacted
# the feed clip (>= 1 compaction), written its snapshot, and a restart
# over that snapshot must recover the feed before draining cleanly.
"$smokedir/serve" -addr 127.0.0.1:0 -ingest -ingest-interval 450ms -ingest-frames 80 \
    -retain-segments 6 -max-staleness 5s -snapshot "$smokedir/live.db" -snapshot-every 5s \
    >"$smokedir/daemon.log" 2>&1 &
serve_pid=$!
url=""
for _ in $(seq 1 50); do
    url=$(sed -n 's/^serve: listening on \(http:\/\/[^ ]*\).*/\1/p' "$smokedir/daemon.log")
    [ -n "$url" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$smokedir/daemon.log" >&2; exit 1; }
    sleep 0.1
done
[ -n "$url" ] || { echo "ingest serve never reported its address" >&2; cat "$smokedir/daemon.log" >&2; exit 1; }
"$smokedir/loadgen" -url "$url" -live -duration 15s -sessions 3 \
    -index vptree -candidates 1048576 -o "$smokedir/smoke-live.json" || {
    echo "--- serve log ---" >&2
    cat "$smokedir/daemon.log" >&2
    exit 1
}
grep -q '"dropped_rounds": 0' "$smokedir/smoke-live.json" || {
    echo "live smoke dropped rounds" >&2
    cat "$smokedir/smoke-live.json" >&2
    exit 1
}
if grep -q '"evictions": 0,' "$smokedir/smoke-live.json"; then
    echo "live smoke never evicted a segment (retention idle)" >&2
    cat "$smokedir/smoke-live.json" >&2
    exit 1
fi
if grep -q '"compactions": 0,' "$smokedir/smoke-live.json"; then
    echo "live smoke never compacted the feed clip" >&2
    cat "$smokedir/smoke-live.json" >&2
    exit 1
fi
kill -INT "$serve_pid"
wait "$serve_pid"
serve_pid=""
grep -q "drained, bye" "$smokedir/daemon.log" || { echo "ingest serve did not drain cleanly" >&2; cat "$smokedir/daemon.log" >&2; exit 1; }
[ -s "$smokedir/live.db" ] || { echo "ingest serve left no snapshot" >&2; exit 1; }
"$smokedir/serve" -addr 127.0.0.1:0 -ingest -snapshot "$smokedir/live.db" \
    >"$smokedir/daemon-restart.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 50); do
    grep -q "listening on" "$smokedir/daemon-restart.log" && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$smokedir/daemon-restart.log" >&2; exit 1; }
    sleep 0.1
done
grep -q "recovered feed" "$smokedir/daemon-restart.log" || {
    echo "restarted daemon did not recover from the snapshot" >&2
    cat "$smokedir/daemon-restart.log" >&2
    exit 1
}
kill -INT "$serve_pid"
wait "$serve_pid"
serve_pid=""
grep -q "drained, bye" "$smokedir/daemon-restart.log" || { echo "restarted ingest serve did not drain" >&2; cat "$smokedir/daemon-restart.log" >&2; exit 1; }

echo "CI OK"
