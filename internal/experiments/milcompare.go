package experiments

import (
	"time"

	"milvideo/internal/core"
	"milvideo/internal/dd"
	"milvideo/internal/mil"
	"milvideo/internal/misvm"
	"milvideo/internal/retrieval"
)

// MILCompare pits the paper's One-class SVM MIL solver against EM-DD
// and MI-SVM (the §2.1 classics, references [6]–[7] and [16]) under
// the identical five-round protocol on both clips — the comparison
// the paper's literature review implies but never runs. Wall-clock
// per session is reported because the paper justifies the One-class
// SVM partly by practicality on high-dimensional data.
func MILCompare() (Table, error) {
	table := Table{
		Title:  "MIL solver comparison (identical protocol, final-round accuracy)",
		Header: []string{"clip", "solver", "Initial", "Final", "session time"},
	}
	for _, src := range []struct {
		name string
		fn   func() (*core.Clip, error)
	}{
		{"tunnel", TunnelClip},
		{"intersection", IntersectionClip},
	} {
		c, err := src.fn()
		if err != nil {
			return Table{}, err
		}
		oracle, err := c.AccidentOracle()
		if err != nil {
			return Table{}, err
		}
		sess := c.Session(oracle, TopK)
		for _, eng := range []retrieval.Engine{
			retrieval.MILEngine{Opt: mil.DefaultOptions()},
			dd.Engine{},
			misvm.Engine{Opt: misvm.Options{C: 2}},
		} {
			start := time.Now()
			res, err := sess.Run(eng, Rounds)
			if err != nil {
				return Table{}, err
			}
			elapsed := time.Since(start).Round(time.Millisecond)
			acc := res.Accuracies()
			table.Rows = append(table.Rows, []string{
				src.name,
				eng.Name(),
				pct(acc[0]),
				pct(acc[len(acc)-1]),
				elapsed.String(),
			})
		}
	}
	return table, nil
}
