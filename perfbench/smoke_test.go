package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload to a seconds-long smoke run of the same
// stack: a small catalog and a short replay.
func tiny(name string) spec {
	sp := workloads[name]
	sp.replayBudget = time.Second
	switch {
	case sp.live():
		sp.sessionRate, sp.segmentRate = 3, 2
	case sp.index != "":
		sp.scale, sp.candidates, sp.quant, sp.sessionRate = 2, 24, "", 3
	default:
		sp.scale, sp.sessionRate = 1, 6
	}
	return sp
}

func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			out := t.TempDir()
			var log bytes.Buffer
			res, err := runWorkload(context.Background(), tiny(name), options{
				seed: 3, seconds: 2, trace: true, out: out, log: &log,
			})
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			for _, m := range []string{"setup_s", "query_p50_ms", "round_p50_ms", "cpu_cores", "rss_peak_mb", "recall_at_10"} {
				if v, ok := res.EndToEnd[m]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m, v)
				}
			}
			if len(res.Metrics) != len(layerDefs) {
				t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(layerDefs))
			}
			if v := res.Metrics["trace.coverage_frac"].Value; v <= 0.5 || v > 1 {
				t.Errorf("trace.coverage_frac = %v, want most of each root span covered", v)
			}
			base := filepath.Join(out, name+"-seed3-trace1")
			if _, err := os.Stat(base + ".json"); err != nil {
				t.Error(err)
			}
			spans, err := os.ReadFile(base + "-spans.jsonl")
			if err != nil {
				t.Fatal(err)
			}
			var first span
			if err := json.Unmarshal([]byte(strings.SplitN(string(spans), "\n", 2)[0]), &first); err != nil || first.Name == "" || first.End < first.Start {
				t.Errorf("first span %+v (%v)", first, err)
			}
		})
	}
}

// TestRunPrintsResultLast drives the command line end to end on the
// smallest workload and parses its last line.
func TestRunPrintsResultLast(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	saved := workloads["demo-feedback"]
	workloads["demo-feedback"] = tiny("demo-feedback")
	defer func() { workloads["demo-feedback"] = saved }()

	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "demo-feedback", "--seed", "5", "--seconds", "1", "--out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted == 0 || len(line.Metrics) != 6 {
		t.Fatalf("result line %+v", line)
	}
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
}

// TestReplayMismatchFailsRun corrupts one served round's record: the
// traced replay then ranks differently from the served session, which
// is a failed output check, counted in failed, that makes the run exit
// 1 with its result rather than end as a set-up error.
func TestReplayMismatchFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	ctx := context.Background()
	sp := tiny("demo-feedback")
	e, _, err := setUp(ctx, sp, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	sched := sessionSchedule(3, sp.sessionRate, 2*time.Second, sp.predFrac)
	fc := newFeedbackClient(e, sp, sched)
	gen := &generator{senders: 2, think: think}
	before := e.srv.Stats()
	samples := gen.run(ctx, time.Now(), sched, fc)
	after := e.srv.Stats()
	if fc.sess[0].served < 2 {
		t.Fatalf("session 0 served %d rounds, want at least 2", fc.sess[0].served)
	}
	fc.sess[0].hashes[1] ^= 1

	res := &result{Workload: sp.name, Correct: true, Metrics: map[string]metric{}}
	li := &layerInputs{sp: sp, e: e, fc: fc, samples: samples, gen: gen, before: before, after: after}
	if _, _, err := traceLayers(ctx, li, res); err != nil {
		t.Fatalf("a replay mismatch ended the run: %v", err)
	}
	if res.Correct || res.Failed != 1 || len(res.Errors) != 1 || !strings.Contains(res.Errors[0], "session 0 round 1: traced replay ranking differs") {
		t.Fatalf("correct=%v failed=%d errors=%v, want the one mismatch counted", res.Correct, res.Failed, res.Errors)
	}
	var stdout, stderr bytes.Buffer
	if code := printLine(&stdout, &stderr, resultLine{Correct: res.Correct, Attempted: 1, Failed: res.Failed}); code != exitBadOutput {
		t.Fatalf("exit %d, want %d", code, exitBadOutput)
	}
	if !strings.Contains(stdout.String(), `"correct":false`) {
		t.Fatalf("result line %q", stdout.String())
	}
}

// TestBenchmarkJSONMatchesOutput keeps the repository's BENCHMARK.json
// in step with the metrics this program prints.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, layers.go %d", len(doc.PerLayer), len(layerDefs))
	}
	for i, d := range layerDefs {
		if got := doc.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, layers.go has %s %s %s", i, got, d.Name, d.Unit, d.Better)
		}
	}
	want := map[string]string{"setup_s": "s", "query_p50_ms": "ms", "round_p50_ms": "ms", "cpu_cores": "cores", "rss_peak_mb": "MB", "recall_at_10": "frac"}
	if len(doc.EndToEnd) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, want %d", len(doc.EndToEnd), len(want))
	}
	for _, m := range doc.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end_to_end %s in %s, program reports %q", m.Name, m.Unit, want[m.Name])
		}
	}
}
