package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"milvideo/internal/core"
	"milvideo/internal/sim"
	"milvideo/internal/videodb"
)

// testCatalog builds a small catalog on disk.
func testCatalog(t *testing.T) string {
	t.Helper()
	scene, err := sim.Tunnel(sim.TunnelConfig{
		Frames: 300, Seed: 5, SpawnEvery: 80, WallCrash: 2, FPS: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	clip, err := core.ProcessSceneStream(scene, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := clip.Record("tunnel")
	if err != nil {
		t.Fatal(err)
	}
	db := videodb.New()
	if err := db.Add(rec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.gob")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunListsClips(t *testing.T) {
	path := testCatalog(t)
	var out bytes.Buffer
	if err := run(path, "", "mil", 3, 10, false, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "tunnel") {
		t.Fatalf("listing missing clip:\n%s", out.String())
	}
}

func TestRunSimulatedSession(t *testing.T) {
	path := testCatalog(t)
	for _, engine := range []string{"mil", "weighted", "rocchio", "emdd", "misvm"} {
		var out bytes.Buffer
		if err := run(path, "tunnel", engine, 2, 5, false, strings.NewReader(""), &out); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if !strings.Contains(out.String(), "accuracy") {
			t.Fatalf("%s: no accuracy report:\n%s", engine, out.String())
		}
	}
}

func TestRunInteractiveSession(t *testing.T) {
	path := testCatalog(t)
	// Answer "y" to everything; plenty of lines for two rounds.
	answers := strings.Repeat("y\n", 50)
	var out bytes.Buffer
	if err := run(path, "tunnel", "mil", 2, 5, true, strings.NewReader(answers), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "relevant? [y/N]") {
		t.Fatalf("no interactive prompt:\n%s", out.String())
	}
	// All-yes answers make every round 100% accurate.
	if !strings.Contains(out.String(), "100.0%") {
		t.Fatalf("expected 100%% rounds:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	path := testCatalog(t)
	var out bytes.Buffer
	if err := run(path, "tunnel", "nonsense", 2, 5, false, strings.NewReader(""), &out); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if err := run(path, "missing-clip", "mil", 2, 5, false, strings.NewReader(""), &out); err == nil {
		t.Fatal("missing clip accepted")
	}
	if err := run(filepath.Join(t.TempDir(), "nope.gob"), "", "mil", 2, 5, false, strings.NewReader(""), &out); err == nil {
		t.Fatal("missing catalog accepted")
	}
}
