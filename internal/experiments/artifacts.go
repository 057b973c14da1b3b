package experiments

import (
	"bytes"
	"fmt"
	"sort"

	"repro/apt"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/stats"
)

// Artifact is one regenerated paper table or figure. Exactly one of Table,
// Figure or Text is set.
type Artifact struct {
	ID      string
	Caption string
	Table   *report.Table
	Figure  *report.Figure
	Text    string
}

// Render writes the artifact's content as text into the buffer.
func (a *Artifact) Render(buf *bytes.Buffer) error {
	switch {
	case a.Table != nil:
		return a.Table.Render(buf)
	case a.Figure != nil:
		return a.Figure.Render(buf)
	default:
		_, err := buf.WriteString(a.Text)
		return err
	}
}

// Table7 regenerates paper Table 7: measured execution times of the
// Figure-5 example kernels per processor.
func (r *Runner) Table7() (*Artifact, error) {
	t := &report.Table{
		Title:   "Table 7. Execution time of different kernels.",
		Headers: []string{"Kernel", "CPU (ms)", "GPU (ms)", "FPGA (ms)"},
	}
	rows := []struct {
		label  string
		kernel string
		elems  int64
	}{
		{"NW", lut.NW, 16777216},
		{"BFS", lut.BFS, 2034736},
		{"CD", lut.CD, 250000},
	}
	tab := lut.Paper()
	for _, row := range rows {
		cells := []string{row.label}
		for _, kind := range platform.StandardKinds() {
			ms, err := tab.Exec(row.kernel, row.elems, kind)
			if err != nil {
				return nil, err
			}
			cells = append(cells, report.Ms(ms))
		}
		t.MustAddRow(cells...)
	}
	return &Artifact{ID: "table7", Caption: "Execution time of different kernels", Table: t}, nil
}

// Figure5 regenerates the paper's worked MET-vs-APT schedule comparison as
// two event logs plus end times. The workload is the thesis's example: one
// nw, three bfs and one cd kernel, all independent.
func (r *Runner) Figure5() (*Artifact, error) {
	wb := apt.NewWorkload()
	wb.AddKernel(lut.NW, 16777216)
	for i := 0; i < 3; i++ {
		wb.AddKernel(lut.BFS, 2034736)
	}
	wb.AddKernel(lut.CD, 250000)
	w, err := wb.Build()
	if err != nil {
		return nil, err
	}
	m := apt.PaperMachine(paperRate)
	var buf bytes.Buffer
	for _, p := range []apt.Policy{apt.MET(metSeed), apt.APT(8)} {
		res, err := apt.Run(w, m, p, nil)
		if err != nil {
			return nil, err
		}
		buf.WriteString(res.Gantt())
		fmt.Fprintf(&buf, "End time: %.3f\n\n", res.MakespanMs)
	}
	return &Artifact{ID: "figure5", Caption: "MET and APT schedule example (α=8)", Text: buf.String()}, nil
}

// PolicyTable builds the Tables 8–12 shape: one row per experiment of a
// suite at the paper's link rate, one column per policy, each cell the
// metric in milliseconds.
func (r *Runner) PolicyTable(typ apt.GraphType, pols []apt.Policy, m metric, title string) (*report.Table, error) {
	t := &report.Table{Title: title, Headers: []string{"Graph"}}
	cols := make([][]*apt.Result, len(pols))
	for j, p := range pols {
		outs, err := r.Suite(typ, paperRate, p)
		if err != nil {
			return nil, err
		}
		cols[j] = outs
		t.Headers = append(t.Headers, p.Name())
	}
	for i := range cols[0] {
		cells := []string{fmt.Sprintf("%d", i+1)}
		for _, outs := range cols {
			cells = append(cells, report.Ms(m(outs[i])))
		}
		t.MustAddRow(cells...)
	}
	return t, nil
}

// Table8 regenerates paper Table 8 (Type-1 makespans, α=1.5).
func (r *Runner) Table8() (*Artifact, error) {
	t, err := r.PolicyTable(apt.Type1, AllPolicies(1.5), makespan,
		"Table 8. Total computation time in milliseconds for DFG Type-1 by all policies (α=1.5 for APT).")
	if err != nil {
		return nil, err
	}
	return &Artifact{ID: "table8", Caption: "DFG Type-1 makespans, α=1.5", Table: t}, nil
}

// Table9 regenerates paper Table 9 (Type-2 makespans, α=1.5).
func (r *Runner) Table9() (*Artifact, error) {
	t, err := r.PolicyTable(apt.Type2, AllPolicies(1.5), makespan,
		"Table 9. Total computation time in milliseconds for DFG Type-2 by all policies (α=1.5 for APT).")
	if err != nil {
		return nil, err
	}
	return &Artifact{ID: "table9", Caption: "DFG Type-2 makespans, α=1.5", Table: t}, nil
}

// Table10 regenerates paper Table 10 (Type-2 makespans, α=4).
func (r *Runner) Table10() (*Artifact, error) {
	t, err := r.PolicyTable(apt.Type2, AllPolicies(4), makespan,
		"Table 10. Total computation time in milliseconds for DFG Type-2 by all policies (α=4 for APT).")
	if err != nil {
		return nil, err
	}
	return &Artifact{ID: "table10", Caption: "DFG Type-2 makespans, α=4", Table: t}, nil
}

// topPolicies are the four best performers the paper charts in Figures 6
// and 8(b), APT at α=1.5.
var topPolicies = []apt.Policy{apt.APT(1.5), apt.MET(metSeed), apt.HEFT(), apt.PEFT()}

// TopPoliciesFigure builds the Figures 6/8(b) shape: average makespan of
// the top four policies with APT at α=1.5.
func (r *Runner) TopPoliciesFigure(typ apt.GraphType, title string) (*report.Figure, error) {
	f := &report.Figure{
		Title:  title,
		XLabel: "Scheduling policy",
		YLabel: "avg execution time (s)",
	}
	y := make([]float64, len(topPolicies))
	for i, p := range topPolicies {
		outs, err := r.Suite(typ, paperRate, p)
		if err != nil {
			return nil, err
		}
		f.X = append(f.X, p.Name())
		y[i] = mean(outs, makespan) / 1000 // seconds, as the paper charts
	}
	f.MustAddSeries("avg execution time", y)
	return f, nil
}

// Figure6 regenerates paper Figure 6 (Type-1 top-4 averages, α=1.5).
func (r *Runner) Figure6() (*Artifact, error) {
	f, err := r.TopPoliciesFigure(apt.Type1,
		"Figure 6. Avg. execution time in seconds for top 4 policies of DFG Type-1 (α=1.5).")
	if err != nil {
		return nil, err
	}
	return &Artifact{ID: "figure6", Caption: "Type-1 top-4 policy averages", Figure: f}, nil
}

// Figure8b regenerates the second Figure 8 (p. 58): Type-2 top-4 averages.
func (r *Runner) Figure8b() (*Artifact, error) {
	f, err := r.TopPoliciesFigure(apt.Type2,
		"Figure 8(b). Avg. execution time in seconds for top 4 policies of DFG Type-2 (α=1.5).")
	if err != nil {
		return nil, err
	}
	return &Artifact{ID: "figure8b", Caption: "Type-2 top-4 policy averages", Figure: f}, nil
}

// AlphaSweepFigure builds the Figures 7/9/11/12 shape: APT's suite average
// (makespan or total λ) per α, one series per transfer rate.
func (r *Runner) AlphaSweepFigure(typ apt.GraphType, m metric, title string) (*report.Figure, error) {
	f := &report.Figure{
		Title:  title,
		XLabel: "α values",
		YLabel: "avg time (s)",
		X:      make([]string, len(Alphas)),
	}
	for i, a := range Alphas {
		f.X[i] = fmt.Sprintf("%g", a)
	}
	for _, rate := range Rates {
		y := make([]float64, len(Alphas))
		for i, a := range Alphas {
			outs, err := r.Suite(typ, rate, apt.APT(a))
			if err != nil {
				return nil, err
			}
			y[i] = mean(outs, m) / 1000
		}
		f.MustAddSeries(fmt.Sprintf("%g GBps", rate), y)
	}
	return f, nil
}

// Figure7 regenerates paper Figure 7 (Type-1 α×rate makespan sweep).
func (r *Runner) Figure7() (*Artifact, error) {
	f, err := r.AlphaSweepFigure(apt.Type1, makespan,
		"Figure 7. Avg. performance of APT for DFG Type-1 on varying α and transfer rate.")
	if err != nil {
		return nil, err
	}
	return &Artifact{ID: "figure7", Caption: "APT α sweep, Type-1 makespan", Figure: f}, nil
}

// Figure9 regenerates paper Figure 9 (Type-2 α×rate makespan sweep).
func (r *Runner) Figure9() (*Artifact, error) {
	f, err := r.AlphaSweepFigure(apt.Type2, makespan,
		"Figure 9. Avg. performance of APT for DFG Type-2 on varying α and transfer rate.")
	if err != nil {
		return nil, err
	}
	return &Artifact{ID: "figure9", Caption: "APT α sweep, Type-2 makespan", Figure: f}, nil
}

// Figure11 regenerates paper Figure 11 (Type-1 α×rate λ sweep).
func (r *Runner) Figure11() (*Artifact, error) {
	f, err := r.AlphaSweepFigure(apt.Type1, lambdaTotal,
		"Figure 11. Avg. λ delay times in seconds of APT for DFG Type-1 on varying α and transfer rate.")
	if err != nil {
		return nil, err
	}
	return &Artifact{ID: "figure11", Caption: "APT α sweep, Type-1 λ delay", Figure: f}, nil
}

// Figure12 regenerates paper Figure 12 (Type-2 α×rate λ sweep).
func (r *Runner) Figure12() (*Artifact, error) {
	f, err := r.AlphaSweepFigure(apt.Type2, lambdaTotal,
		"Figure 12. Avg. λ delay times of APT for DFG Type-2 on varying α and transfer rate.")
	if err != nil {
		return nil, err
	}
	return &Artifact{ID: "figure12", Caption: "APT α sweep, Type-2 λ delay", Figure: f}, nil
}

// PerExperimentFigure builds the Figures 8(a)/10 shape: per-experiment
// makespans of MET vs APT(α=4).
func (r *Runner) PerExperimentFigure(typ apt.GraphType, title string) (*report.Figure, error) {
	f := &report.Figure{
		Title:  title,
		XLabel: "Experiment number",
		YLabel: "execution time (s)",
	}
	for _, p := range []apt.Policy{apt.APT(4), apt.MET(metSeed)} {
		outs, err := r.Suite(typ, paperRate, p)
		if err != nil {
			return nil, err
		}
		y := make([]float64, len(outs))
		for i, o := range outs {
			y[i] = o.MakespanMs / 1000
		}
		if f.X == nil {
			for i := range outs {
				f.X = append(f.X, fmt.Sprintf("%d", i+1))
			}
		}
		f.MustAddSeries(p.Name(), y)
	}
	return f, nil
}

// Figure8a regenerates the first Figure 8 (p. 56): per-experiment Type-1
// makespans, MET vs APT(α=4).
func (r *Runner) Figure8a() (*Artifact, error) {
	f, err := r.PerExperimentFigure(apt.Type1,
		"Figure 8(a). Execution time of experiments of DFG Type-1 for MET and APT (α=4).")
	if err != nil {
		return nil, err
	}
	return &Artifact{ID: "figure8a", Caption: "Type-1 per-experiment, MET vs APT(α=4)", Figure: f}, nil
}

// Figure10 regenerates paper Figure 10: per-experiment Type-2 makespans.
func (r *Runner) Figure10() (*Artifact, error) {
	f, err := r.PerExperimentFigure(apt.Type2,
		"Figure 10. Execution time of experiments of DFG Type-2 for MET and APT (α=4).")
	if err != nil {
		return nil, err
	}
	return &Artifact{ID: "figure10", Caption: "Type-2 per-experiment, MET vs APT(α=4)", Figure: f}, nil
}

// Table11 regenerates paper Table 11 (Type-1 λ delays, α=4).
func (r *Runner) Table11() (*Artifact, error) {
	t, err := r.PolicyTable(apt.Type1, AllPolicies(4), lambdaTotal,
		"Table 11. Total λ delay in milliseconds for DFG Type-1 by all policies (α=4 for APT).")
	if err != nil {
		return nil, err
	}
	return &Artifact{ID: "table11", Caption: "Type-1 λ delays, α=4", Table: t}, nil
}

// Table12 regenerates paper Table 12 (Type-2 λ delays, α=4).
func (r *Runner) Table12() (*Artifact, error) {
	t, err := r.PolicyTable(apt.Type2, AllPolicies(4), lambdaTotal,
		"Table 12. Total λ delay in milliseconds for DFG Type-2 by all policies (α=4 for APT).")
	if err != nil {
		return nil, err
	}
	return &Artifact{ID: "table12", Caption: "Type-2 λ delays, α=4", Table: t}, nil
}

// Table13 regenerates paper Table 13: APT's percentage improvement in
// average makespan and average total λ over the second-best dynamic policy
// (Eq. 13–14), per α, per graph type, at 4 GB/s.
func (r *Runner) Table13() (*Artifact, error) {
	t := &report.Table{
		Title: "Table 13. Improvement metrics for APT with respect to different types of graphs.",
		Headers: []string{"α",
			"T1 Improvement exec", "T1 Improvement λ delay",
			"T2 Improvement exec", "T2 Improvement λ delay"},
		Notes: []string{"Positive: APT better than the best non-APT dynamic policy (Eq. 13–14)."},
	}
	for _, a := range Alphas {
		cells := []string{fmt.Sprintf("%g", a)}
		for _, typ := range []apt.GraphType{apt.Type1, apt.Type2} {
			aptOuts, err := r.Suite(typ, paperRate, apt.APT(a))
			if err != nil {
				return nil, err
			}
			bestExec, bestLambda, err := r.secondBestDynamic(typ)
			if err != nil {
				return nil, err
			}
			cells = append(cells,
				report.Pct(stats.ImprovementPct(bestExec, mean(aptOuts, makespan))),
				report.Pct(stats.ImprovementPct(bestLambda, mean(aptOuts, lambdaTotal))))
		}
		t.MustAddRow(cells...)
	}
	return &Artifact{ID: "table13", Caption: "APT improvement vs second-best dynamic policy", Table: t}, nil
}

// secondBestDynamic returns the suite-average makespan and λ of the
// second-best policy: the non-APT dynamic policy with the lowest average
// makespan ("for better understanding of comparison, the second best
// policy can only be a dynamic policy", paper §4.4 — in practice MET).
// Both improvement metrics are computed against this one policy.
func (r *Runner) secondBestDynamic(typ apt.GraphType) (execMs, lambdaMs float64, err error) {
	first := true
	for _, p := range DynamicPolicies {
		outs, err := r.Suite(typ, paperRate, p)
		if err != nil {
			return 0, 0, err
		}
		if e := mean(outs, makespan); first || e < execMs {
			execMs, lambdaMs, first = e, mean(outs, lambdaTotal), false
		}
	}
	return execMs, lambdaMs, nil
}

// Table14 regenerates paper Table 14: the complete lookup table.
func (r *Runner) Table14() (*Artifact, error) {
	t := &report.Table{
		Title:   "Table 14. Complete lookup table.",
		Headers: []string{"Kernel", "Data Size", "CPU", "GPU", "FPGA"},
	}
	for _, e := range lut.Paper().Entries() {
		t.MustAddRow(
			e.Kernel,
			fmt.Sprintf("%d", e.DataElems),
			report.Ms(e.TimeMs[platform.CPU]),
			report.Ms(e.TimeMs[platform.GPU]),
			report.Ms(e.TimeMs[platform.FPGA]),
		)
	}
	return &Artifact{ID: "table14", Caption: "Complete lookup table", Table: t}, nil
}

// AllocationTable builds the Tables 15/16 shape: per α and per experiment,
// how many kernels APT sent to an alternative processor and which kernels
// they were.
func (r *Runner) AllocationTable(typ apt.GraphType, title string) (*report.Table, error) {
	t := &report.Table{
		Title:   title,
		Headers: []string{"α", "Experiment", "Total kernels", "Total different assignments", "Kernel specific"},
	}
	for _, a := range Alphas {
		outs, err := r.Suite(typ, paperRate, apt.APT(a))
		if err != nil {
			return nil, err
		}
		for i, o := range outs {
			t.MustAddRow(
				fmt.Sprintf("%g", a),
				fmt.Sprintf("%d", i+1),
				fmt.Sprintf("%d", len(o.Kernels)),
				fmt.Sprintf("%d", o.Alt.AltAssignments),
				formatByKernel(o.Alt.ByKernel),
			)
		}
	}
	return t, nil
}

func formatByKernel(m map[string]int) string {
	if len(m) == 0 {
		return "0"
	}
	keys := make([]string, 0, len(m))
	for k := range m { //lint:ordered — collected then sorted just below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	for i, k := range keys {
		if i > 0 {
			buf.WriteString(", ")
		}
		fmt.Fprintf(&buf, "%d-%s", m[k], k)
	}
	return buf.String()
}

// Table15 regenerates paper Table 15 (Type-1 allocation analyses).
func (r *Runner) Table15() (*Artifact, error) {
	t, err := r.AllocationTable(apt.Type1, "Table 15. APT kernel allocation analyses for DFG Type-1 graphs.")
	if err != nil {
		return nil, err
	}
	return &Artifact{ID: "table15", Caption: "APT allocation analyses, Type-1", Table: t}, nil
}

// Table16 regenerates paper Table 16 (Type-2 allocation analyses).
func (r *Runner) Table16() (*Artifact, error) {
	t, err := r.AllocationTable(apt.Type2, "Table 16. APT kernel allocation analyses for DFG Type-2 graphs.")
	if err != nil {
		return nil, err
	}
	return &Artifact{ID: "table16", Caption: "APT allocation analyses, Type-2", Table: t}, nil
}
