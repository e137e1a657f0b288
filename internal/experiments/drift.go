package experiments

import (
	"fmt"

	"milvideo/internal/core"
	"milvideo/internal/mil"
	"milvideo/internal/retrieval"
	"milvideo/internal/sim"
)

// IlluminationDrift evaluates the vision substrate under slow global
// lighting change (clouds/dusk — the deployment condition the paper's
// fixed background-subtraction stage would face): the same tunnel
// scene is rendered with a ±35-gray-level sinusoidal drift, then
// processed once with the static median background and once with the
// adaptive (selective running average) model. Reported are tracking
// quality against ground truth and the final-round MIL retrieval
// accuracy built on top of each.
func IlluminationDrift() (Table, error) {
	table := Table{
		Title:  "Illumination-drift robustness (tunnel, ±35 gray levels, MIL-OCSVM)",
		Header: []string{"background model", "tracks", "purity", "coverage", "final accuracy"},
	}
	for _, variant := range []struct {
		name     string
		key      string
		adaptive bool
	}{
		{"static median", "drift/static", false},
		{"adaptive (selective running average)", "drift/adaptive", true},
	} {
		adaptive := variant.adaptive
		clip, err := cachedClip(variant.key, func() (*core.Clip, error) {
			cfg := sim.DefaultTunnel()
			cfg.Frames = 1500
			cfg.WallCrash, cfg.SuddenStop, cfg.HardBrake, cfg.Speeding = 7, 2, 7, 1
			scene, err := sim.Tunnel(cfg)
			if err != nil {
				return nil, err
			}
			pcfg := core.DefaultConfig()
			pcfg.Render.LightDrift = 35
			pcfg.Segment.Adaptive = adaptive
			return core.ProcessScene(scene, pcfg)
		})
		if err != nil {
			return Table{}, err
		}
		q, err := clip.TrackingQuality(12)
		if err != nil {
			return Table{}, err
		}
		oracle, err := clip.AccidentOracle()
		if err != nil {
			return Table{}, err
		}
		sess := clip.Session(oracle, TopK)
		res, err := sess.Run(retrieval.MILEngine{Opt: mil.DefaultOptions()}, Rounds)
		if err != nil {
			return Table{}, err
		}
		acc := res.Accuracies()
		table.Rows = append(table.Rows, []string{
			variant.name,
			fmt.Sprintf("%d", len(clip.Tracks)),
			fmt.Sprintf("%.2f", q.Purity),
			fmt.Sprintf("%.2f", q.Coverage),
			pct(acc[len(acc)-1]),
		})
	}
	return table, nil
}
