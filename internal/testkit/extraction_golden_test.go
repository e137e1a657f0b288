package testkit_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"sort"
	"testing"

	"milvideo/internal/core"
	"milvideo/internal/faults"
	"milvideo/internal/ingestd"
	"milvideo/internal/sim"
	"milvideo/internal/testkit"
)

// TestExtractionGolden pins the vision pipeline's output across code
// versions: per configuration, the FNV-64a hash of the clip's tracks
// and VSs (extractionHash) must equal the recorded one. The
// identity tests elsewhere compare two paths of one code version
// (stream against sequential, zero-rate faults, replays), so a change
// inside a stage both paths share — morphology, SPCPE, the tracker —
// would pass all of them while changing every track. The table covers
// the tunnel and intersection scenes under the default, adaptive and
// fault-injected pipelines, plus the live feed's first three simulated
// segments (ingestd.SimSource, seed 0) through the daemon's default
// pipeline. A deliberate change to the extracted output re-pins the
// hashes; the failure message prints the recomputed ones.
func TestExtractionGolden(t *testing.T) {
	want := map[string]string{
		"tunnel/default":        "d115bde20644822c",
		"tunnel/adaptive":       "daa1652c69cfdc1a",
		"tunnel/faults":         "f09ea259bac68dd4",
		"intersection/default":  "862cc815fc054be3",
		"intersection/adaptive": "a219c0dc07050e51",
		"intersection/faults":   "e00a3059ddadd536",
		"live/0":                "ebd6e700410deae0",
		"live/1":                "0e47d3a8a40b2169",
		"live/2":                "cc509df1e97eefa5",
	}
	got := extractionHashes(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	drift := len(got) != len(want) && !raceDetectorOn
	if drift {
		t.Errorf("the test pins %d configurations but drives %d", len(want), len(got))
	}
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: extraction hash %s, want %s", k, got[k], want[k])
			drift = true
		}
	}
	if drift {
		for _, k := range keys {
			t.Logf("%q: %q,", k, got[k])
		}
	}
}

// extractionHashes runs the configurations of TestExtractionGolden
// and returns each one's signature hash by name. Under the race
// detector, where a 120-frame clip takes about ten seconds, it runs
// only the first live segment; the plain test leg runs them all.
func extractionHashes(t *testing.T) map[string]string {
	t.Helper()
	type row struct {
		name string
		run  func() (*core.Clip, error)
	}
	var rows []row
	src := &ingestd.SimSource{Seed: 0, Frames: 100}
	for n := 0; n < 3; n++ {
		scene, err := src.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{fmt.Sprintf("live/%d", n), func() (*core.Clip, error) {
			return core.ProcessSceneStream(scene, core.DefaultConfig())
		}})
	}
	adaptive := testkit.PipelineConfig(nil)
	adaptive.Segment.Adaptive = true
	cfgs := []struct {
		name string
		cfg  func() core.Config
	}{
		{"default", func() core.Config { return testkit.PipelineConfig(nil) }},
		{"adaptive", func() core.Config { return adaptive }},
		{"faults", func() core.Config { return testkit.PipelineConfig(faults.New(testkit.FaultSchedule(7))) }},
	}
	scenes := []struct {
		name  string
		build func(seed int64, frames int) (*sim.Scene, error)
	}{
		{"tunnel", testkit.TunnelScene},
		{"intersection", testkit.IntersectionScene},
	}
	for _, sc := range scenes {
		for _, c := range cfgs {
			rows = append(rows, row{sc.name + "/" + c.name, func() (*core.Clip, error) {
				scene, err := sc.build(1, 120)
				if err != nil {
					return nil, err
				}
				return core.ProcessSceneStream(scene, c.cfg())
			}})
		}
	}
	if raceDetectorOn {
		rows = rows[:1]
	}
	got := make(map[string]string, len(rows))
	for _, r := range rows {
		clip, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		h, err := extractionHash(clip)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got[r.name] = h
	}
	return got
}

// extractionHash returns the FNV-64a hash of the clip's tracks and
// VSs in a canonical byte form, as 16 hex digits. Not
// testkit.Signature's gob bytes: gob numbers the types it meets
// process-wide, in first-use order, so those bytes compare two runs
// within one process but change with whatever the process encoded
// before (with TestSceneSignature run first, every hash here
// differed). Not JSON either: it has no ±Inf, and the first live
// segment's features hold +Inf.
func extractionHash(clip *core.Clip) (string, error) {
	h := fnv.New64a()
	for _, v := range []any{clip.Tracks, clip.VSs} {
		if err := canonical(h, reflect.ValueOf(v)); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// canonical writes v to w in a process-independent form that keeps
// exactly what gob encodes: numbers as their 64-bit little-endian
// bits, strings and slices length-prefixed, structs by their exported
// fields in order, and pointers as a nil flag then what they point to.
func canonical(w io.Writer, v reflect.Value) error {
	word := func(x uint64) error { return binary.Write(w, binary.LittleEndian, x) }
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return word(1)
		}
		return word(0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return word(v.Uint())
	case reflect.Float32, reflect.Float64:
		return word(math.Float64bits(v.Float()))
	case reflect.String:
		if err := word(uint64(v.Len())); err != nil {
			return err
		}
		_, err := io.WriteString(w, v.String())
		return err
	case reflect.Slice, reflect.Array:
		if err := word(uint64(v.Len())); err != nil {
			return err
		}
		for i := 0; i < v.Len(); i++ {
			if err := canonical(w, v.Index(i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				continue
			}
			if err := canonical(w, v.Field(i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Pointer:
		if v.IsNil() {
			return word(0)
		}
		if err := word(1); err != nil {
			return err
		}
		return canonical(w, v.Elem())
	}
	return fmt.Errorf("canonical: unsupported kind %s (%s)", v.Kind(), v.Type())
}
