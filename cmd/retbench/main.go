// Command retbench generates a graded incident-retrieval benchmark
// suite and scores the serving stack against its exact ground truth,
// writing a machine-readable report (RETBENCH.json by default).
//
// A suite is a set of seeded scenarios — tunnel and intersection
// worlds carrying the full eight-type incident taxonomy, including a
// two-camera scenario reconciled through homography into cross-camera
// trajectories. Every (scenario, category) pair runs one MIL feedback
// session per serving path (exact, candidate C=N, quantized VP-tree+PQ
// at C=3N/4, sharded scatter–gather) and is scored with recall@k and mean
// average precision against the simulator's incident log.
//
// Usage:
//
//	go run ./cmd/retbench                      # easy tier, seed 1, RETBENCH.json
//	go run ./cmd/retbench -tier hard -seed 7 -o -   # hard tier to stdout
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"milvideo/internal/retbench"
)

func main() {
	tier := flag.String("tier", "easy", "suite tier: easy, medium or hard")
	seed := flag.Int64("seed", 1, "suite seed (per-scenario seeds derive from it)")
	out := flag.String("o", "RETBENCH.json", "output path, or - for stdout")
	rounds := flag.Int("rounds", 0, "feedback rounds per session (0 = default 5)")
	topk := flag.Int("topk", 0, "results labeled per round (0 = default 10)")
	k := flag.Int("k", 0, "recall cutoff (0 = default 10)")
	flag.Parse()

	if err := run(*tier, *seed, *out, retbench.RunConfig{Rounds: *rounds, TopK: *topk, K: *k}); err != nil {
		fmt.Fprintln(os.Stderr, "retbench:", err)
		os.Exit(1)
	}
}

func run(tier string, seed int64, out string, cfg retbench.RunConfig) error {
	suite, err := retbench.Generate(tier, seed)
	if err != nil {
		return err
	}
	rep, err := retbench.Run(suite, cfg)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("retbench: %s tier, seed %d, %d scenarios -> %s\n",
		rep.Tier, rep.Seed, len(suite.Scenarios), out)
	return nil
}
