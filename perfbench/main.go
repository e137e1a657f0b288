// Command perfbench is the repository's layered, open-loop benchmark.
// It generates one of three seeded workloads, runs it against the real
// serving stack (an in-process server.Server over loopback HTTP, plus an
// ingestd.Daemon for live-ingest), checks every output, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload archive-feedback --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// spans recorded. With --trace 1 the same run is followed by a traced
// in-process replay of the same sessions and segments, and the metrics
// are the per-layer ones. --workload all runs every workload in turn,
// each in a process of its own.
//
// Run artifacts (the full result with run metadata, the per-layer table
// and the recorded spans) are written under --out.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// exitBadOutput is the exit code of a run whose output checks failed;
// the result line is still printed. Usage and set-up errors exit 2
// without a result.
const exitBadOutput = 1

// runLimit bounds one workload's run: set-up, window, checks and replay
// take well under a minute on two cores.
const runLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name ("+strings.Join(workloadNames(), ", ")+", or all)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Int("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 replays the run with spans and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for run artifacts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	if *workload == "all" {
		return runAll(args, stdout, stderr)
	}
	sp, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}

	// A run that hangs must still end, without a result line, inside
	// its time limit.
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := runWorkload(context.Background(), sp, options{
		seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, log: stderr,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 2
	}
	printHuman(stdout, res)
	return printLine(stdout, stderr, resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
}

// runAll runs every workload in a process of its own, so that each
// one's peak memory is its own, and folds their result lines into one,
// each metric name prefixed "<workload>.".
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	all := resultLine{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames() {
		ctx, cancel := context.WithTimeout(context.Background(), runLimit+10*time.Second)
		var out bytes.Buffer
		cmd := exec.CommandContext(ctx, exe, append(args[:len(args):len(args)], "--workload", name)...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		cancel()
		text := strings.TrimRight(out.String(), "\n")
		body, last := "", text
		if i := strings.LastIndexByte(text, '\n'); i >= 0 {
			body, last = text[:i+1], text[i+1:]
		}
		fmt.Fprint(stdout, body)
		var line resultLine
		if err := json.Unmarshal([]byte(last), &line); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s ended without a result (%v)\n", name, runErr)
			return 2
		}
		all.Correct = all.Correct && line.Correct
		all.Attempted += line.Attempted
		all.Failed += line.Failed
		for m, v := range line.Metrics {
			all.Metrics[name+"."+m] = v
		}
	}
	return printLine(stdout, stderr, all)
}

// printLine prints the result line last and returns the exit code.
func printLine(stdout, stderr io.Writer, line resultLine) int {
	blob, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(blob))
	return exitCode(line)
}

// exitCode is 0 for a run whose outputs all checked out and
// exitBadOutput otherwise.
func exitCode(line resultLine) int {
	if !line.Correct {
		return exitBadOutput
	}
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the final line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printHuman writes a workload's run metadata, check outcomes and
// metrics as readable lines.
func printHuman(w io.Writer, r *result) {
	fmt.Fprintf(w, "== %s (seed %d, %ds window, trace %v)\n", r.Workload, r.Meta.Seed, r.Meta.Seconds, r.Meta.Trace)
	fmt.Fprintf(w, "   nproc %d, GOMAXPROCS %d, %s, commit %s\n", r.Meta.NumCPU, r.Meta.GOMAXPROCS, r.Meta.GoVersion, r.Meta.Commit)
	fmt.Fprintf(w, "   offered: %.3g sessions/s", r.Meta.SessionRate)
	if r.Meta.SegmentRate > 0 {
		fmt.Fprintf(w, ", %.3g segments/s", r.Meta.SegmentRate)
	}
	fmt.Fprintf(w, "; %d sessions, %d segments scheduled\n", r.Meta.Sessions, r.Meta.Segments)
	fmt.Fprintf(w, "   attempted %d, failed %d, error_rate %.4g\n", r.Attempted, r.Failed, r.errorRate())
	for _, c := range r.Checks {
		fmt.Fprintf(w, "   check: %s\n", c)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "   %-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}
