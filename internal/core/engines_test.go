package core

import (
	"errors"
	"testing"

	"milvideo/internal/retrieval"
	"milvideo/internal/sim"
)

// TestEngineByName covers the registry: every listed name resolves,
// the empty name selects the default, unknown names fail typed, and
// the ignored MILCache argument changes nothing.
func TestEngineByName(t *testing.T) {
	for _, name := range EngineNames() {
		e, err := EngineByName(name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.Name() == "" {
			t.Fatalf("%s: empty engine name", name)
		}
	}
	def, err := EngineByName("", nil)
	if err != nil {
		t.Fatal(err)
	}
	mil, err := EngineByName(DefaultEngine, nil)
	if err != nil {
		t.Fatal(err)
	}
	if def.Name() != mil.Name() {
		t.Fatalf("default engine %q, want %q", def.Name(), mil.Name())
	}
	if _, err := EngineByName("nope", nil); !errors.Is(err, ErrUnknownEngine) {
		t.Fatalf("unknown engine: %v", err)
	}
	withCache, err := EngineByName(DefaultEngine, retrieval.NewMILCache())
	if err != nil {
		t.Fatal(err)
	}
	if withCache != mil {
		t.Fatalf("MILCache argument changed the engine: %#v vs %#v", withCache, mil)
	}
}

// TestIncidentOverlap pins the shared relevance test used by oracles
// on both sides of the wire.
func TestIncidentOverlap(t *testing.T) {
	incs := []sim.Incident{{Type: sim.WallCrash, Start: 10, End: 20}}
	acc := func(tp sim.IncidentType) bool { return tp.IsAccident() }
	if !IncidentOverlap(incs, acc, 15, 30, 5) {
		t.Fatal("overlapping interval rejected")
	}
	if IncidentOverlap(incs, acc, 19, 30, 5) {
		t.Fatal("2-frame overlap accepted at need 5")
	}
	if IncidentOverlap(incs, func(sim.IncidentType) bool { return false }, 0, 100, 1) {
		t.Fatal("pred ignored")
	}
	if !IncidentOverlap(incs, nil, 20, 25, 0) {
		t.Fatal("nil pred / zero need should accept any accident overlap")
	}
}
