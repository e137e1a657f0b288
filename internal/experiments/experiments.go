// Package experiments regenerates every table and figure of the
// paper's evaluation (§6) plus the ablations DESIGN.md calls out.
// Each experiment returns a formatted Table so cmd/experiments, the
// top-level benchmarks and EXPERIMENTS.md all report identical rows.
//
// Processing a paper-scale clip (render, segment, track) costs a few
// seconds; the package memoizes the two default processed clips so a
// full experiment sweep pays that cost once per scenario.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"milvideo/internal/core"
	"milvideo/internal/sim"
)

// Table is one experiment's result in display form.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for j, h := range t.Header {
		widths[j] = len(h)
	}
	for _, r := range t.Rows {
		for j, c := range r {
			if j < len(widths) && len(c) > widths[j] {
				widths[j] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for j, c := range cells {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// clipEntry memoizes one scene → processed-clip build.
type clipEntry struct {
	once sync.Once
	clip *core.Clip
	err  error
}

var (
	clipMu    sync.Mutex
	clipCache = map[string]*clipEntry{}
)

// cachedClip returns the processed clip registered under key, building
// it at most once per process (E1–E11, the sweeps and the benchmarks
// all share one build per scenario). Builders must be deterministic:
// the key stands for the exact clip the build produces. Safe for
// concurrent use; concurrent callers of the same key block on the one
// build.
func cachedClip(key string, build func() (*core.Clip, error)) (*core.Clip, error) {
	clipMu.Lock()
	e, ok := clipCache[key]
	if !ok {
		e = &clipEntry{}
		clipCache[key] = e
	}
	clipMu.Unlock()
	e.once.Do(func() { e.clip, e.err = build() })
	return e.clip, e.err
}

// TunnelClip returns the processed default tunnel clip (the paper's
// first clip), shared across experiments.
func TunnelClip() (*core.Clip, error) {
	return cachedClip("tunnel", func() (*core.Clip, error) {
		scene, err := sim.Tunnel(sim.DefaultTunnel())
		if err != nil {
			return nil, err
		}
		return core.ProcessScene(scene, core.DefaultConfig())
	})
}

// IntersectionClip returns the processed default intersection clip
// (the paper's second clip), shared across experiments.
func IntersectionClip() (*core.Clip, error) {
	return cachedClip("intersection", func() (*core.Clip, error) {
		scene, err := sim.Intersection(sim.DefaultIntersection())
		if err != nil {
			return nil, err
		}
		return core.ProcessScene(scene, core.DefaultConfig())
	})
}

// WarmClips builds both default processed clips with the streaming
// pipeline, the two builds in flight concurrently, so a following
// sweep or benchmark run starts from a warm clip cache. Subsequent
// TunnelClip/IntersectionClip calls hit the memoized results.
func WarmClips() error {
	builds := []func() (*core.Clip, error){TunnelClip, IntersectionClip}
	return runConcurrent(len(builds), func(i int) error {
		_, err := builds[i]()
		return err
	})
}

// sweepWorkers bounds runConcurrent's pool; 0 sizes it by GOMAXPROCS.
// Determinism tests pin it to compare pool sizes.
var sweepWorkers = 0

// runConcurrent runs jobs 0…n−1 on a bounded worker pool and returns
// the lowest-index error. Jobs must write results only into their own
// preassigned slots, which keeps the output identical for any worker
// count — the sweep experiments run their independent configurations
// through this.
func runConcurrent(n int, job func(int) error) error {
	workers := sweepWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				errs[i] = job(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pct formats an accuracy as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }

// pcts formats a whole accuracy series.
func pcts(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = pct(v)
	}
	return out
}

// registry lists every experiment under its CLI name, in report order.
var registry = []struct {
	name string
	fn   func() (Table, error)
}{
	{"stats", DatasetStats},
	{"fig8", Figure8},
	{"fig9", Figure9},
	{"fit", CurveFit},
	{"norm", NormalizationAblation},
	{"zsweep", ZSweep},
	{"window", WindowSweep},
	{"events", EventGenerality},
	{"selection", InstanceSelectionAblation},
	{"crosscam", CrossCamera},
	{"milcompare", MILCompare},
	{"drift", IlluminationDrift},
}

// All runs every experiment in report order.
func All() ([]Table, error) {
	var out []Table
	for _, name := range Names() {
		t, err := ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ByName runs one experiment by its CLI name. Its errors name the
// package and the experiment.
func ByName(name string) (Table, error) {
	for _, r := range registry {
		if r.name != name {
			continue
		}
		t, err := r.fn()
		if err != nil {
			return Table{}, fmt.Errorf("experiments: %s: %w", name, err)
		}
		return t, nil
	}
	return Table{}, fmt.Errorf("experiments: unknown experiment %q (one of: %v)", name, Names())
}

// Names lists the experiment identifiers in report order.
func Names() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.name
	}
	return out
}
