package experiments

import "fmt"

// driver regenerates one artifact on a Runner.
type driver struct {
	id    string
	build func(*Runner) (*Artifact, error)
}

// paperDrivers lists the thesis's artifacts in the paper's order.
var paperDrivers = []driver{
	{"table1", (*Runner).Table1}, {"table5", (*Runner).Table5},
	{"table7", (*Runner).Table7}, {"figure5", (*Runner).Figure5},
	{"table8", (*Runner).Table8}, {"figure6", (*Runner).Figure6},
	{"figure7", (*Runner).Figure7}, {"figure8a", (*Runner).Figure8a},
	{"table9", (*Runner).Table9}, {"figure8b", (*Runner).Figure8b},
	{"table10", (*Runner).Table10}, {"figure9", (*Runner).Figure9},
	{"figure10", (*Runner).Figure10}, {"table11", (*Runner).Table11},
	{"figure11", (*Runner).Figure11}, {"table12", (*Runner).Table12},
	{"figure12", (*Runner).Figure12}, {"table13", (*Runner).Table13},
	{"table14", (*Runner).Table14}, {"table15", (*Runner).Table15},
	{"table16", (*Runner).Table16},
}

// extDrivers lists the extension artifacts (extensions.go, robustness.go).
// They go beyond the thesis, so IDs excludes them; cmd/experiments
// regenerates them behind -ext.
var extDrivers = []driver{
	{"ext-policies", (*Runner).ExtPolicies}, {"ext-stream", (*Runner).ExtStream},
	{"ext-latency", (*Runner).ExtLatency}, {"ext-noise", (*Runner).ExtNoise},
	{"ext-bounds", (*Runner).ExtBounds}, {"ext-robustness", (*Runner).ExtRobustness},
	{"ext-robust-p99", (*Runner).ExtRobustP99}, {"ext-degrade", (*Runner).ExtDegrade},
}

// Artifact regenerates one artifact by ID (e.g. "table8", "figure11",
// "ext-stream"). IDs and ExtIDs list the catalogue.
func (r *Runner) Artifact(id string) (*Artifact, error) {
	for _, drivers := range [][]driver{paperDrivers, extDrivers} {
		for _, d := range drivers {
			if d.id != id {
				continue
			}
			a, err := d.build(r)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", id, err)
			}
			return a, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown artifact %q (known: %v, extensions: %v)", id, IDs(), ExtIDs())
}

// IDs returns every paper artifact ID in the paper's order.
func IDs() []string { return driverIDs(paperDrivers) }

// ExtIDs returns the extension artifact IDs.
func ExtIDs() []string { return driverIDs(extDrivers) }

func driverIDs(drivers []driver) []string {
	out := make([]string, len(drivers))
	for i, d := range drivers {
		out[i] = d.id
	}
	return out
}
