// Package milvideo's top-level benchmarks regenerate every table and
// figure of the paper's evaluation (see DESIGN.md's per-experiment
// index) and measure the cost of each pipeline stage. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks report the reproduced accuracy series via
// b.ReportMetric (columns named after the feedback rounds) so the
// paper-vs-measured comparison in EXPERIMENTS.md can be regenerated
// from benchmark output alone.
package milvideo_test

import (
	"strconv"
	"strings"
	"testing"

	"milvideo/internal/core"
	"milvideo/internal/experiments"
	"milvideo/internal/index"
	"milvideo/internal/kernel"
	"milvideo/internal/mil"
	"milvideo/internal/render"
	"milvideo/internal/retrieval"
	"milvideo/internal/rf"
	"milvideo/internal/segment"
	"milvideo/internal/server"
	"milvideo/internal/sim"
	"milvideo/internal/svm"
	"milvideo/internal/trajectory"
	"milvideo/internal/window"

	"math/rand"

	"milvideo/internal/geom"
)

// reportTable attaches a table's accuracy cells as benchmark metrics
// and logs the formatted table once.
func reportTable(b *testing.B, t experiments.Table) {
	b.Helper()
	b.Log("\n" + t.Format())
	for _, row := range t.Rows {
		for j := 1; j < len(row); j++ {
			cell := strings.TrimSuffix(row[j], "%")
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				continue // non-numeric cell
			}
			name := sanitizeMetric(row[0] + "/" + t.Header[j])
			b.ReportMetric(v, name)
		}
	}
}

func sanitizeMetric(s string) string {
	s = strings.ReplaceAll(s, " ", "_")
	s = strings.ReplaceAll(s, "(", "")
	s = strings.ReplaceAll(s, ")", "")
	return s
}

// BenchmarkFigure8 regenerates the paper's Figure 8 (E1): retrieval
// accuracy over five feedback rounds on the tunnel clip, proposed
// MIL-OCSVM vs the weighted-RF baseline.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkFigure9 regenerates Figure 9 (E2) on the intersection clip.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkDatasetStats regenerates the §6.2 dataset statistics (E3).
func BenchmarkDatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.DatasetStats()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkCurveFit regenerates Figure 2 (E4): the polynomial
// trajectory fit across degrees.
func BenchmarkCurveFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.CurveFit()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkNormalizationAblation regenerates the §6.2 weight-
// normalization comparison (E5).
func BenchmarkNormalizationAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.NormalizationAblation()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkZSweep regenerates the Eq. (9) z calibration (E6).
func BenchmarkZSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.ZSweep()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkWindowSweep regenerates the §5.1 window-size ablation (E7).
func BenchmarkWindowSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.WindowSweep()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkEventGenerality regenerates the §4 generality experiment
// (E8): U-turn and speeding queries.
func BenchmarkEventGenerality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.EventGenerality()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkInstanceSelectionAblation regenerates the §5.3 training-
// set selection ablation (DESIGN.md choice 1/2).
func BenchmarkInstanceSelectionAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.InstanceSelectionAblation()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkCrossCamera regenerates the §6.2 future-work cross-camera
// normalization experiment (DESIGN.md E9).
func BenchmarkCrossCamera(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.CrossCamera()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkMILCompare regenerates the MIL solver comparison
// (One-class SVM vs EM-DD, DESIGN.md E10).
func BenchmarkMILCompare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.MILCompare()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkIlluminationDrift regenerates the background-model
// robustness experiment (DESIGN.md E11).
func BenchmarkIlluminationDrift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.IlluminationDrift()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// --- pipeline-stage microbenchmarks ------------------------------------

// benchScene builds a small scene once for the stage benchmarks.
func benchScene(b *testing.B) *sim.Scene {
	b.Helper()
	s, err := sim.Tunnel(sim.TunnelConfig{
		Frames: 300, Seed: 9, SpawnEvery: 80, WallCrash: 1, FPS: 25,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkPipelineEndToEnd measures the full vision+learning pipeline
// on a 300-frame clip.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	scene := benchScene(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ProcessSceneStream(scene, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentationPerFrame measures single-frame vehicle
// extraction (background subtraction + morphology + components +
// SPCPE refinement).
func BenchmarkSegmentationPerFrame(b *testing.B) {
	scene := benchScene(b)
	clip, err := core.ProcessSceneStream(scene, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	ex, err := segment.NewExtractor(clip.Video, segment.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	img := clip.Video.Frames[len(clip.Video.Frames)/2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Segments(img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBackgroundModel measures the histogram temporal-median
// background learner over every frame of the 300-frame bench clip
// (the large-sample regime the histogram path exists for).
func BenchmarkBackgroundModel(b *testing.B) {
	scene := benchScene(b)
	clip, err := render.Video(scene, render.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := segment.LearnBackground(clip.Frames, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelGram measures the symmetric parallel Gram matrix at
// retrieval-database scale (200 instances of dimension 9).
func BenchmarkKernelGram(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	X := make([][]float64, 200)
	for i := range X {
		row := make([]float64, 9)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		X[i] = row
	}
	k := kernel.RBF{Sigma: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kernel.Matrix(k, X); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOneClassSVMTrain measures OCSVM training at the size the
// retrieval loop uses (tens of 9-dim instances).
func BenchmarkOneClassSVMTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	X := make([][]float64, 60)
	for i := range X {
		row := make([]float64, 9)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		X[i] = row
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svm.TrainOneClass(X, svm.Options{Nu: 0.2, Kernel: kernel.RBF{Sigma: 1}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMILRank measures one full re-ranking round of the MIL
// engine over a synthetic 200-bag database.
func BenchmarkMILRank(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var db []window.VS
	labels := map[int]mil.Label{}
	for i := 0; i < 200; i++ {
		vs := window.VS{Index: i, StartFrame: i * 15, EndFrame: i*15 + 10}
		nts := 1 + rng.Intn(3)
		for k := 0; k < nts; k++ {
			ts := window.TS{TrackID: i*10 + k}
			for p := 0; p < 3; p++ {
				ts.Vectors = append(ts.Vectors, []float64{rng.Float64(), rng.Float64() * 3, rng.Float64()})
			}
			vs.TSs = append(vs.TSs, ts)
		}
		db = append(db, vs)
		if i < 20 {
			if i%2 == 0 {
				labels[i] = mil.Positive
			} else {
				labels[i] = mil.Negative
			}
		}
	}
	engine := retrieval.MILEngine{Opt: mil.DefaultOptions()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Rank(db, labels); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightedRFRank measures the baseline's re-ranking round on
// the same database shape.
func BenchmarkWeightedRFRank(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var db []window.VS
	labels := map[int]mil.Label{}
	for i := 0; i < 200; i++ {
		vs := window.VS{Index: i, StartFrame: i * 15, EndFrame: i*15 + 10}
		ts := window.TS{TrackID: i}
		for p := 0; p < 3; p++ {
			ts.Vectors = append(ts.Vectors, []float64{rng.Float64(), rng.Float64() * 3, rng.Float64()})
		}
		vs.TSs = []window.TS{ts}
		db = append(db, vs)
		if i < 20 {
			labels[i] = mil.Positive
		}
	}
	engine := retrieval.WeightedEngine{Norm: rf.NormPercentage}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Rank(db, labels); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestStreamClip measures the streaming pipeline
// (segmentation workers overlapped with tracking, pooled buffers) on
// the same pre-rendered clip.
func BenchmarkIngestStreamClip(b *testing.B) {
	scene := benchScene(b)
	clip, err := render.Video(scene, render.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ProcessVideoStream(clip, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrajectoryFit measures the Eq. (2) least-squares fit at the
// paper's 4th degree over a 100-point track.
func BenchmarkTrajectoryFit(b *testing.B) {
	frames := make([]int, 100)
	pts := make([]geom.Point, 100)
	for i := range frames {
		frames[i] = i
		t := float64(i)
		pts[i] = geom.Pt(10+2.5*t, 120+0.01*t*t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trajectory.Fit(frames, pts, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexBuildArchive measures the archive's candidate-index
// build: index.Build with a VP-tree over the 74,000 instances of
// ScaledDemoRecord(1, 1000) (48,000 VSs, 6,000 of them sharing one
// witness TS), with PQ codes (training included) and with float rows.
func BenchmarkIndexBuildArchive(b *testing.B) {
	rec, err := server.ScaledDemoRecord(1, 1000)
	if err != nil {
		b.Fatal(err)
	}
	for _, quant := range []index.QuantKind{index.QuantPQ, index.QuantNone} {
		name := string(quant)
		if quant == index.QuantNone {
			name = "none"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := index.Build(rec.VSs, index.KindVPTree, index.Options{Quant: quant}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
