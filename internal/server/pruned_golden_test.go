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

// prunedGoldenPath pins the served rankings of pruned (C < N)
// feedback sessions. The C=N identity gates compare candidate serving
// against exact ranking; below N there is no exact reference, so a
// change to probing, aggregation or re-ranking could reorder results
// silently. These hashes were recorded from the serving stack before
// the probe path was optimized, and every later change must reproduce
// them byte for byte.
var prunedGoldenPath = filepath.Join("testdata", "pruned_rankings.json")

// prunedRankingHashes drives one five-round, top-20 session per
// configuration — ScaledDemoRecord(1, {10, 100}) × {vptree, ivf} ×
// {none, pq} × C ∈ {N/32, N/4} — judged by JudgeFromRecord ground
// truth, and returns the SHA-256 of every round's full ranking keyed
// by configuration.
func prunedRankingHashes(t *testing.T) map[string][]string {
	t.Helper()
	const topK, rounds = 20, 5
	ctx := context.Background()
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
			for _, kind := range []index.Kind{index.KindVPTree, index.KindIVF} {
				for _, c := range []int{n / 32, n / 4} {
					key := fmt.Sprintf("%dx/%s/%s/C=%d", scale, kind, quant, c)
					resp, err := client.Query(ctx, QueryRequest{
						Clip: rec.Name, TopK: topK, Index: string(kind), Candidates: c,
					})
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
					out[key] = hashes
				}
			}
		}
	}
	return out
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
