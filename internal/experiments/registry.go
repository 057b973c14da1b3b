package experiments

import (
	"repro/internal/dfg"
	"repro/internal/lut"
)

// newFigure5Graph builds the workload of the thesis's Figure 5 example:
// one nw, three bfs, one cd (250000 elements), all independent.
func newFigure5Graph() *dfg.Graph {
	b := dfg.NewBuilder()
	b.AddKernel(dfg.Kernel{Name: lut.NW, DataElems: 16777216})
	b.AddKernel(dfg.Kernel{Name: lut.BFS, DataElems: 2034736})
	b.AddKernel(dfg.Kernel{Name: lut.BFS, DataElems: 2034736})
	b.AddKernel(dfg.Kernel{Name: lut.BFS, DataElems: 2034736})
	b.AddKernel(dfg.Kernel{Name: lut.CD, DataElems: 250000})
	return b.MustBuild()
}

// artifactDrivers maps artifact IDs to their drivers in the paper's order.
var artifactOrder = []string{
	"table1", "table5",
	"table7", "figure5",
	"table8", "figure6", "figure7", "figure8a",
	"table9", "figure8b", "table10", "figure9", "figure10",
	"table11", "figure11", "table12", "figure12",
	"table13", "table14", "table15", "table16",
}

// Artifact regenerates one paper artifact by ID (e.g. "table8",
// "figure11"). Use IDs for the catalogue.
func (r *Runner) Artifact(id string) (*Artifact, error) {
	switch id {
	case "table1":
		return r.Table1()
	case "table5":
		return r.Table5()
	case "table7":
		return r.Table7()
	case "figure5":
		return r.Figure5()
	case "table8":
		return r.Table8()
	case "figure6":
		return r.Figure6()
	case "figure7":
		return r.Figure7()
	case "figure8a":
		return r.Figure8a()
	case "table9":
		return r.Table9()
	case "figure8b":
		return r.Figure8b()
	case "table10":
		return r.Table10()
	case "figure9":
		return r.Figure9()
	case "figure10":
		return r.Figure10()
	case "table11":
		return r.Table11()
	case "figure11":
		return r.Figure11()
	case "table12":
		return r.Table12()
	case "figure12":
		return r.Figure12()
	case "table13":
		return r.Table13()
	case "table14":
		return r.Table14()
	case "table15":
		return r.Table15()
	case "table16":
		return r.Table16()
	default:
		return r.extArtifact(id)
	}
}

// IDs returns every artifact ID in the paper's order.
func IDs() []string {
	out := make([]string, len(artifactOrder))
	copy(out, artifactOrder)
	return out
}
