package experiments

import (
	"fmt"
	"io"

	"repro/internal/errlog"
	"repro/internal/evalx"
	"repro/internal/parx"
)

// Fig5Result reproduces Figure 5: total cost per DRAM manufacturer
// partition at a 2 node–minute mitigation cost. MN/All trains and evaluates
// one model on the whole system; MN/A, MN/B and MN/C train and evaluate
// separately per manufacturer; MN/ABC is the sum of the three.
type Fig5Result struct {
	Labels []string
	Runs   []evalx.CVResult // parallel to Labels; MN/ABC holds summed totals
}

// RunFig5 regenerates Figure 5. The four runs — MN/All and the three
// manufacturer partitions — are independent: separate logs, separate
// artifact caches. They fan out across workers in one parx.For and merge by
// index, which keeps the figure deterministic for any worker count; the
// RL training slots bound the nested training.
func RunFig5(w *World) Fig5Result {
	cfg := w.cvConfig(2)
	runs := make([]evalx.CVResult, 1+int(errlog.NumManufacturers))
	parx.For(len(runs), 0, func(i int) {
		if i == 0 {
			runs[0] = evalx.RunCV(w.Log, w.Trace, cfg)
			return
		}
		m := errlog.Manufacturer(i - 1)
		pcfg := cfg
		pcfg.Cache = w.PartitionCache(m)
		runs[i] = evalx.RunCV(w.Partition(m), w.Trace, pcfg)
	})
	res := Fig5Result{Labels: []string{"MN/All"}, Runs: []evalx.CVResult{runs[0]}}

	var abc evalx.CVResult
	for m := errlog.Manufacturer(0); m < errlog.NumManufacturers; m++ {
		cv := runs[1+int(m)]
		res.Labels = append(res.Labels, "MN/"+m.String())
		res.Runs = append(res.Runs, cv)
		if len(abc.Totals) == 0 {
			abc.Totals = make([]evalx.Result, len(cv.Totals))
			for i := range abc.Totals {
				abc.Totals[i].Policy = cv.Totals[i].Policy
			}
		}
		for i := range cv.Totals {
			if i < len(abc.Totals) {
				abc.Totals[i].Add(cv.Totals[i])
			}
		}
	}
	res.Labels = append(res.Labels, "MN/ABC")
	res.Runs = append(res.Runs, abc)
	return res
}

// Render writes one row per approach and one column per partition.
func (r Fig5Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 5: total cost (node-hours) per DRAM manufacturer partition, 2 node-minute mitigation")
	if len(r.Runs) == 0 || len(r.Runs[0].Totals) == 0 {
		return
	}
	header := append([]string{"approach"}, r.Labels...)
	var rows [][]string
	for i, total := range r.Runs[0].Totals {
		row := []string{total.Policy}
		for _, cv := range r.Runs {
			if i < len(cv.Totals) {
				row = append(row, nh(cv.Totals[i].TotalCost()))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	writeTable(w, header, rows)
}
