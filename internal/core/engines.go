// Engine registry: the one place a ranking engine is resolved from a
// name, shared by cmd/milquery, the HTTP query service and the load
// generator so every front end drives the identical code path.
package core

import (
	"errors"
	"fmt"
	"sort"

	"milvideo/internal/dd"
	"milvideo/internal/mil"
	"milvideo/internal/misvm"
	"milvideo/internal/retrieval"
	"milvideo/internal/rf"
	"milvideo/internal/sim"
	"milvideo/internal/videodb"
	"milvideo/internal/window"
)

// ErrUnknownEngine is returned for engine names outside the registry.
var ErrUnknownEngine = errors.New("core: unknown engine")

// DefaultEngine is the engine used when a request names none: the
// paper's proposed MIL + One-class SVM framework.
const DefaultEngine = "mil"

// engineBuilders maps names to constructors.
var engineBuilders = map[string]func() retrieval.Engine{
	"mil": func() retrieval.Engine {
		return retrieval.MILEngine{Opt: mil.DefaultOptions()}
	},
	"weighted": func() retrieval.Engine {
		return retrieval.WeightedEngine{Norm: rf.NormPercentage}
	},
	"rocchio": func() retrieval.Engine {
		return retrieval.RocchioEngine{}
	},
	"emdd": func() retrieval.Engine {
		return dd.Engine{}
	},
	"misvm": func() retrieval.Engine {
		return misvm.Engine{Opt: misvm.Options{C: 2}}
	},
}

// EngineNames lists the registry in sorted order (for usage strings
// and API error messages).
func EngineNames() []string {
	out := make([]string, 0, len(engineBuilders))
	for n := range engineBuilders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// EngineByName resolves a ranking engine. The empty name selects
// DefaultEngine. The MILCache argument is ignored; it remains so that
// callers written against the removed cross-round distance cache still
// compile, and nil is the value to pass.
func EngineByName(name string, _ *retrieval.MILCache) (retrieval.Engine, error) {
	if name == "" {
		name = DefaultEngine
	}
	build, ok := engineBuilders[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownEngine, name, EngineNames())
	}
	return build(), nil
}

// OracleFromRecord builds the simulated user for a stored clip from
// its incident ground truth: a VS is relevant iff an incident whose
// type satisfies pred overlaps it by at least one sampling interval
// (nil pred selects accidents). It is the judgment source for offline
// sessions, the milquery tool and the load generator alike.
func OracleFromRecord(rec *videodb.ClipRecord, pred func(sim.IncidentType) bool) (retrieval.Oracle, error) {
	if rec == nil {
		return nil, errors.New("core: nil record")
	}
	if len(rec.Incidents) == 0 {
		return nil, fmt.Errorf("core: clip %q has no incident ground truth", rec.Name)
	}
	if pred == nil {
		pred = func(t sim.IncidentType) bool { return t.IsAccident() }
	}
	incidents := rec.Incidents
	need := rec.Window.SampleRate
	if need < 1 {
		need = 1
	}
	return retrieval.FuncOracle(func(vs window.VS) bool {
		return IncidentOverlap(incidents, pred, vs.StartFrame, vs.EndFrame, need)
	}), nil
}

// IncidentOverlap reports whether any incident accepted by pred
// overlaps the frame interval [start, end] by at least need frames —
// the shared relevance test behind every ground-truth oracle (the
// load generator applies it to frame spans received over the wire,
// where no window.VS value exists).
func IncidentOverlap(incidents []sim.Incident, pred func(sim.IncidentType) bool, start, end, need int) bool {
	if need < 1 {
		need = 1
	}
	for _, inc := range incidents {
		if pred != nil && !pred(inc.Type) {
			continue
		}
		lo, hi := inc.Start, inc.End
		if start > lo {
			lo = start
		}
		if end < hi {
			hi = end
		}
		if hi-lo+1 >= need {
			return true
		}
	}
	return false
}
