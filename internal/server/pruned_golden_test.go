package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"milvideo/internal/index"
)

// prunedGoldenPath pins the served rankings of judged feedback
// sessions: pruned (C < N), C = N, exact and predicate-seeded. The C=N
// identity gates compare candidate serving against exact ranking;
// below N there is no exact reference, so a change to probing,
// aggregation or re-ranking could reorder results silently, and a
// change to the learner itself would move exact and C=N alike. The
// pruned hashes were recorded from the serving stack before the probe
// path was optimized, the exact, C=N and predicate hashes before the
// cross-round kernel distance cache was deleted, the in-process
// sharded ones before unsharded serving moved onto the shard engine,
// and every later change must reproduce them byte for byte.
var prunedGoldenPath = filepath.Join("testdata", "pruned_rankings.json")

// prunedRankingHashes drives one five-round, top-20 session per
// configuration on ScaledDemoRecord(1, {10, 100}), judged by
// JudgeFromRecord ground truth, and returns the SHA-256 of every
// round's full ranking keyed by configuration. Per scale the
// configurations are an exact session, vptree × {none, pq} ×
// C ∈ {N/32, N/4, N}, in-process sharded sessions over Config.Shards
// ∈ {2, 3} × vptree × {none, pq} × C ∈ {N/32, N/4}, and at 10×
// one exact session seeded with DemoPredicates()[0]. At 100× and
// three shards the per-shard budget falls below C, so the sharded
// entries pin the budget slack and the scout's carried bound too.
func prunedRankingHashes(t *testing.T) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, scale := range []int{10, 100} {
		rec, err := ScaledDemoRecord(1, scale)
		if err != nil {
			t.Fatal(err)
		}
		judge, err := JudgeFromRecord(rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := len(rec.VSs)
		for _, quant := range []string{"none", "pq"} {
			_, client := newTestServer(t, Config{DB: testCatalog(t, rec), Quant: quant})
			if quant == "none" {
				key := fmt.Sprintf("%dx/exact", scale)
				out[key] = sessionRankingHashes(t, client, judge, key, QueryRequest{Clip: rec.Name, Index: "exact"})
				if scale == 10 {
					key += "/predicate"
					out[key] = sessionRankingHashes(t, client, judge, key, QueryRequest{
						Clip: rec.Name, Index: "exact", Predicate: DemoPredicates()[0],
					})
				}
			}
			kind := index.KindVPTree
			for _, c := range []int{n / 32, n / 4, n} {
				key := fmt.Sprintf("%dx/%s/%s/C=%d", scale, kind, quant, c)
				out[key] = sessionRankingHashes(t, client, judge, key, QueryRequest{
					Clip: rec.Name, Index: string(kind), Candidates: c,
				})
			}
			for _, shards := range []int{2, 3} {
				_, client := newTestServer(t, Config{DB: testCatalog(t, rec), Quant: quant, Shards: shards})
				for _, c := range []int{n / 32, n / 4} {
					key := fmt.Sprintf("%dx/S=%d/%s/%s/C=%d", scale, shards, kind, quant, c)
					out[key] = sessionRankingHashes(t, client, judge, key, QueryRequest{
						Clip: rec.Name, Index: string(kind), Candidates: c,
					})
				}
			}
		}
	}
	return out
}

// sessionRankingHashes runs one five-round, top-20 session from req,
// labeling each round's top-k by judge, and returns the hash of every
// round's full ranking.
func sessionRankingHashes(t *testing.T, client *Client, judge Judge, key string, req QueryRequest) []string {
	t.Helper()
	const topK, rounds = 20, 5
	ctx := context.Background()
	req.TopK = topK
	resp, err := client.Query(ctx, req)
	if err != nil {
		t.Fatalf("%s: query: %v", key, err)
	}
	var hashes []string
	for r := 0; ; r++ {
		hashes = append(hashes, rankingHash(resp.Ranking))
		if r == rounds-1 {
			break
		}
		labels := make([]FeedbackLabel, len(resp.TopK))
		for i, e := range resp.TopK {
			labels[i] = FeedbackLabel{VS: e.VS, Relevant: judge(e)}
		}
		if resp, err = client.Feedback(ctx, resp.Session, labels); err != nil {
			t.Fatalf("%s: round %d: %v", key, r+1, err)
		}
	}
	if err := client.Delete(ctx, resp.Session); err != nil {
		t.Fatalf("%s: delete: %v", key, err)
	}
	return hashes
}

// rankingHash is the hex SHA-256 of a ranking's decimal VS indices,
// comma-separated.
func rankingHash(ranking []int) string {
	h := sha256.New()
	var buf []byte
	for _, vs := range ranking {
		buf = strconv.AppendInt(buf[:0], int64(vs), 10)
		buf = append(buf, ',')
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPrunedRankingGolden fails on any drift of a pruned session's
// rankings from the pinned hashes. A deliberate ranking change must
// re-pin the file; the failure message prints the recomputed JSON.
func TestPrunedRankingGolden(t *testing.T) {
	raw, err := os.ReadFile(prunedGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", prunedGoldenPath, err)
	}
	got := prunedRankingHashes(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	drift := false
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: configuration missing from %s", k, prunedGoldenPath)
			drift = true
			continue
		}
		for r := range got[k] {
			if r >= len(w) || got[k][r] != w[r] {
				t.Errorf("%s: round %d ranking drifted from the pinned hash", k, r)
				drift = true
			}
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d configurations, the test drives %d", prunedGoldenPath, len(want), len(got))
		drift = true
	}
	if drift {
		fresh, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("recomputed hashes:\n%s", fresh)
	}
}

// TestPrunedRoundWork pins the probe work behind pruned rankings.
// TestPrunedRankingGolden pins what the rounds return, but a lost
// shared threshold or scout bound would multiply distance evaluations
// without moving any ranking. Per configuration, one judged
// five-round session (as in prunedRankingHashes) runs on a fresh
// server over ScaledDemoRecord(1, 100) behind VP-tree+PQ at S ∈ {1, 3}
// × C ∈ {150, 1200}, and the server's index counters must equal the
// pinned ones exactly. A deliberate change to the probe work re-pins
// them; the failure message prints the recomputed counts.
func TestPrunedRoundWork(t *testing.T) {
	type work struct{ Probes, DistEvals, CandidatesRanked int64 }
	want := map[string]work{
		"S=1/C=150":  {Probes: 173, DistEvals: 56_338, CandidatesRanked: 656},
		"S=1/C=1200": {Probes: 173, DistEvals: 414_812, CandidatesRanked: 4_812},
		"S=3/C=150":  {Probes: 519, DistEvals: 82_427, CandidatesRanked: 628},
		"S=3/C=1200": {Probes: 519, DistEvals: 372_497, CandidatesRanked: 4_812},
	}
	rec, err := ScaledDemoRecord(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	judge, err := JudgeFromRecord(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		for _, c := range []int{150, 1200} {
			key := fmt.Sprintf("S=%d/C=%d", shards, c)
			_, client := newTestServer(t, Config{DB: testCatalog(t, rec), Quant: "pq", Shards: shards})
			sessionRankingHashes(t, client, judge, key, QueryRequest{
				Clip: rec.Name, Index: string(index.KindVPTree), Candidates: c,
			})
			st, err := client.Stats(context.Background())
			if err != nil {
				t.Fatalf("%s: stats: %v", key, err)
			}
			got := work{st.Index.Probes, st.Index.DistEvals, st.Index.CandidatesRanked}
			if got != want[key] {
				t.Errorf("%s: work %+v, pinned %+v", key, got, want[key])
			}
		}
	}
}
