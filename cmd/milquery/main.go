// Command milquery runs an interactive (or simulated) relevance-
// feedback retrieval session over a stored clip, reproducing the
// paper's Fig. 7 workflow in a terminal: each round the top-K video
// sequences are listed, feedback is collected, and the chosen engine
// re-ranks the database.
//
// Usage:
//
//	milquery -db db.gob -clip tunnel                 # simulated user
//	milquery -db db.gob -clip tunnel -interactive    # human feedback
//	milquery -db db.gob -clip tunnel -engine weighted -rounds 4
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"milvideo/internal/core"
	"milvideo/internal/retrieval"
	"milvideo/internal/videodb"
	"milvideo/internal/window"
)

func main() {
	dbPath := flag.String("db", "videodb.gob", "videodb catalog file")
	clip := flag.String("clip", "", "clip name (empty lists clips)")
	engineName := flag.String("engine", core.DefaultEngine,
		fmt.Sprintf("engine: %s", strings.Join(core.EngineNames(), ", ")))
	rounds := flag.Int("rounds", 5, "feedback rounds including the initial one")
	topK := flag.Int("topk", 20, "results per round")
	interactive := flag.Bool("interactive", false, "ask a human instead of the ground-truth oracle")
	flag.Parse()

	if err := run(*dbPath, *clip, *engineName, *rounds, *topK, *interactive, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "milquery:", err)
		os.Exit(1)
	}
}

func run(dbPath, clip, engineName string, rounds, topK int, interactive bool, in io.Reader, out io.Writer) error {
	db, err := videodb.LoadFile(dbPath)
	if err != nil {
		return err
	}
	if clip == "" {
		fmt.Fprintln(out, "clips in catalog:")
		for _, n := range db.Names() {
			rec, err := db.Clip(n)
			if err != nil {
				return err
			}
			s := rec.Stats()
			fmt.Fprintf(out, "  %-16s %5d frames  %3d VSs  %3d TSs  %d incidents\n",
				n, s.Frames, s.VSCount, s.TSCount, s.Incidents)
		}
		return nil
	}
	rec, err := db.Clip(clip)
	if err != nil {
		return err
	}

	// The shared registry resolves the engine — the identical code
	// path the HTTP query service drives.
	engine, err := core.EngineByName(engineName, nil)
	if err != nil {
		return err
	}

	var sess *retrieval.Session
	if interactive {
		sess = &retrieval.Session{
			DB:     rec.VSs,
			Oracle: &humanOracle{in: bufio.NewScanner(in), out: out},
			TopK:   topK,
		}
	} else {
		sess, err = core.SessionFromRecord(rec, nil, topK)
		if err != nil {
			return err
		}
	}

	res, err := sess.Run(engine, rounds)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nengine %s on clip %q (%d VSs, %d relevant):\n",
		res.Engine, clip, len(rec.VSs), sess.GroundTruthRelevant())
	names := []string{"Initial", "First", "Second", "Third", "Fourth"}
	for i, r := range res.Rounds {
		name := fmt.Sprintf("Round %d", i)
		if i < len(names) {
			name = names[i]
		}
		fmt.Fprintf(out, "  %-8s accuracy %5.1f%%  (%d newly labeled)\n", name, r.Accuracy*100, r.NewLabels)
	}
	return nil
}

// humanOracle asks the terminal user about each VS, showing its frame
// range and a summary of the trajectories inside — a text stand-in
// for the paper's video-playback interface.
type humanOracle struct {
	in  *bufio.Scanner
	out io.Writer
	// answers caches judgments so a VS re-shown in a later round is
	// not asked twice.
	answers map[int]bool
}

// Relevant implements retrieval.Oracle.
func (h *humanOracle) Relevant(vs window.VS) bool {
	if h.answers == nil {
		h.answers = make(map[int]bool)
	}
	if a, ok := h.answers[vs.Index]; ok {
		return a
	}
	fmt.Fprintf(h.out, "VS %d: frames %d-%d, %d vehicle trajectories, peak point score %.2f\n",
		vs.Index, vs.StartFrame, vs.EndFrame, len(vs.TSs), peakScore(vs))
	fmt.Fprint(h.out, "  relevant? [y/N] ")
	ans := false
	if h.in.Scan() {
		t := strings.TrimSpace(strings.ToLower(h.in.Text()))
		ans = t == "y" || t == "yes"
	}
	h.answers[vs.Index] = ans
	return ans
}

// peakScore mirrors the §5.3 heuristic for display.
func peakScore(vs window.VS) float64 {
	best := 0.0
	for _, ts := range vs.TSs {
		for _, f := range ts.Vectors {
			s := 0.0
			for _, v := range f {
				s += v * v
			}
			if s > best {
				best = s
			}
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}
