package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"storagesubsys/internal/core"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/report"
)

// WriteCSVs exports the machine-readable form of every figure into dir
// (created if needed), for external plotting: fig4.csv (AFR breakdown
// by class, with and without family H), fig9_shelf.csv /
// fig9_raidgroup.csv (CDF points per failure type), and fig10.csv
// (correlation analysis per scope and type). Returns the files written.
func (env *Env) WriteCSVs(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	write := func(name string, headers []string, rows [][]string) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		report.CSV(f, headers, rows)
		if err := f.Close(); err != nil {
			return err
		}
		written = append(written, path)
		return nil
	}

	// fig4.csv — AFR breakdowns by class.
	var fig4 [][]string
	for _, variant := range []struct {
		label  string
		filter core.Filter
	}{
		{"including-H", core.Filter{}},
		{"excluding-H", core.Filter{ExcludeFamily: fleet.ProblemFamily}},
	} {
		for _, b := range env.Dataset.AFRByClass(variant.filter) {
			for _, t := range failmodel.Types {
				fig4 = append(fig4, []string{
					variant.label, b.Label, t.Short(),
					fmt.Sprintf("%.6f", b.AFR[t]),
					fmt.Sprint(b.Events[t]),
					fmt.Sprintf("%.1f", b.DiskYears),
				})
			}
		}
	}
	if err := write("fig4.csv", []string{"variant", "class", "failure_type", "afr", "events", "disk_years"}, fig4); err != nil {
		return written, err
	}

	// fig9_<scope>.csv — CDF sample points per failure type + overall.
	for _, scope := range []core.Scope{core.ByShelf, core.ByRAIDGroup} {
		g := env.Dataset.Gaps(scope, core.Filter{})
		var rows [][]string
		add := func(label string, xs, ys []float64) {
			for i := range xs {
				rows = append(rows, []string{label,
					fmt.Sprintf("%.1f", xs[i]), fmt.Sprintf("%.6f", ys[i])})
			}
		}
		for _, t := range failmodel.Types {
			if e := g.PerType[t]; e.Len() >= 2 {
				xs, ys := e.Points(100)
				add(t.Short(), xs, ys)
			}
		}
		if g.Overall.Len() >= 2 {
			xs, ys := g.Overall.Points(100)
			add("overall", xs, ys)
		}
		name := "fig9_shelf.csv"
		if scope == core.ByRAIDGroup {
			name = "fig9_raidgroup.csv"
		}
		if err := write(name, []string{"failure_type", "gap_seconds", "cdf"}, rows); err != nil {
			return written, err
		}
	}

	// fig10.csv — correlation analysis.
	var fig10 [][]string
	for _, scope := range []core.Scope{core.ByShelf, core.ByRAIDGroup} {
		for _, r := range env.Dataset.Correlation(scope, core.CorrelationOptions{}) {
			fig10 = append(fig10, []string{
				scope.String(), r.Type.Short(),
				fmt.Sprint(r.Containers),
				fmt.Sprintf("%.6f", r.P1), fmt.Sprintf("%.6f", r.P2),
				fmt.Sprintf("%.8f", r.TheoreticalP2), fmt.Sprintf("%.2f", r.Ratio),
				fmt.Sprintf("%.6f", r.P2CI.Lower), fmt.Sprintf("%.6f", r.P2CI.Upper),
			})
		}
	}
	if err := write("fig10.csv",
		[]string{"scope", "failure_type", "containers", "p1", "p2", "theoretical_p2", "ratio", "p2_ci_lower", "p2_ci_upper"},
		fig10); err != nil {
		return written, err
	}
	return written, nil
}
