package apt

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/perturb"
	"repro/internal/platform"
	"repro/internal/stats"
)

// NoiseModel selects the shape of the estimate error a Perturbation
// injects. The zero value is NoiseUniform, so the zero Noise (Frac 0) is
// the identity.
type NoiseModel = perturb.NoiseModel

// The estimate-error models: independent uniform factors in [1-Frac,
// 1+Frac], median-1 log-normal factors exp(Frac·N(0,1)), and
// stale-estimate drift — a per-kind multiplicative random walk across
// lookup-table entries, modelling a table that aged between measurement
// and use.
const (
	NoiseUniform   = perturb.NoiseUniform
	NoiseLogNormal = perturb.NoiseLogNormal
	NoiseDrift     = perturb.NoiseDrift
)

// ParseNoiseModel resolves "uniform", "lognormal" or "drift".
func ParseNoiseModel(s string) (NoiseModel, error) { return perturb.ParseNoiseModel(s) }

// Noise describes estimate error: what the hardware actually does relative
// to the lookup table every policy trusts. The zero value is exact
// estimates. Model is the error shape (default NoiseUniform); Frac the
// magnitude (uniform half-width in [0,1), or the log-normal / drift-step
// sigma; 0 disables the random component); Bias multiplies the actual
// times of a processor kind by a fixed factor (Bias[GPU] = 1.3 means GPU
// kernels really run 30% slower than estimated); Seed fixes the random
// draws, so the same Noise always perturbs identically.
type Noise = perturb.Noise

// noiseKey canonically encodes the noise (model, magnitude, seed, sorted
// bias entries) so worker memos can key the perturbed tables it produces;
// Apply is deterministic, so equal keys always yield equal tables.
func noiseKey(n Noise) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d|%g|%d", int(n.Model), n.Frac, n.Seed)
	kinds := make([]string, 0, len(n.Bias))
	for k := range n.Bias { //lint:ordered — collected then sorted just below
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&sb, "|%s=%g", k, n.Bias[ProcKind(k)])
	}
	return sb.String()
}

// DegradeKind distinguishes platform-degradation event types.
type DegradeKind = perturb.EventKind

// Platform-degradation events: a processor running Factor× slower over a
// window, a processor fully offline over a window (in-flight work stalls
// and resumes; it cannot receive transfers), and a symmetric link with
// Factor× less bandwidth over a window.
const (
	ProcSlowdown = perturb.ProcSlowdown
	ProcOffline  = perturb.ProcOffline
	LinkSlowdown = perturb.LinkSlowdown
)

// DegradeEvent is one degradation episode over [StartMs, EndMs). Policies
// never observe events — only their consequences through completion times —
// which is exactly how a production scheduler experiences a degrading
// platform.
type DegradeEvent struct {
	Kind DegradeKind
	// Proc is the affected processor index (ProcSlowdown, ProcOffline).
	Proc int
	// From and To are the link endpoints (LinkSlowdown), both directions.
	From, To int
	// StartMs and EndMs bound the window; EndMs must be finite.
	StartMs, EndMs float64
	// Factor is the slowdown (>= 1); ignored for ProcOffline.
	Factor float64
}

// ParseDegradeEvents parses a comma-separated degradation spec:
//
//	slow:P:F:START:END   processor P runs F× slower during [START, END) ms
//	off:P:START:END      processor P is offline during [START, END) ms
//	link:A:B:F:START:END link A<->B has F× less bandwidth during the window
//
// Example: "slow:1:2:1000:5000,off:2:8000:9000".
func ParseDegradeEvents(spec string) ([]DegradeEvent, error) {
	evs, err := perturb.ParseEvents(spec)
	if err != nil {
		return nil, err
	}
	out := make([]DegradeEvent, len(evs))
	for i, e := range evs {
		out[i] = DegradeEvent{
			Kind: e.Kind, Proc: int(e.Proc), From: int(e.From), To: int(e.To),
			StartMs: e.StartMs, EndMs: e.EndMs, Factor: e.Factor,
		}
	}
	return out, nil
}

// checkEventProcs refuses an event naming a processor the machine lacks:
// the schedule would never match it, and the run would silently go
// undegraded. It checks the int fields before they narrow to
// platform.ProcID; perturb.NewSchedule checks the rest.
func checkEventProcs(evs []DegradeEvent, m *Machine) error {
	np := m.NumProcs()
	for i, e := range evs {
		procs := []int{e.Proc}
		if e.Kind == LinkSlowdown {
			procs = []int{e.From, e.To}
		}
		for _, p := range procs {
			if p < 0 || p >= np {
				return fmt.Errorf("apt: degradation event %d names processor %d, but the machine has %d processors", i, p, np)
			}
		}
	}
	return nil
}

// internalEvents converts facade events; validation happens in
// checkEventProcs and perturb.NewSchedule.
func internalEvents(evs []DegradeEvent) []perturb.Event {
	out := make([]perturb.Event, len(evs))
	for i, e := range evs {
		out[i] = perturb.Event{
			Kind: e.Kind, Proc: platform.ProcID(e.Proc),
			From: platform.ProcID(e.From), To: platform.ProcID(e.To),
			StartMs: e.StartMs, EndMs: e.EndMs, Factor: e.Factor,
		}
	}
	return out
}

// Perturbation bundles everything that can separate the scheduler's model
// from the platform's reality in one run: estimate noise on the lookup
// table and dynamic degradation events. Attach one via Options.Perturb.
type Perturbation struct {
	// Noise perturbs the actual execution times away from the estimates.
	Noise Noise
	// Events degrade the platform dynamically while the run executes.
	Events []DegradeEvent
	// Oracle gives the policy the perturbed table too (perfect
	// information): the noise component disappears from its decisions.
	// Degradation events still apply — no policy can see the future.
	// RunRobustness uses this as the regret baseline.
	Oracle bool
}

// RobustnessConfig parameterises RunRobustness. Workloads, Machine,
// Policies and Fracs are required.
type RobustnessConfig struct {
	// Workloads is the evaluation suite; reported metrics aggregate over
	// it.
	Workloads []*Workload
	Machine   *Machine
	// Policies are compared at every noise level.
	Policies []Policy
	// Fracs is the sweep axis: one noise magnitude per operating point
	// (include 0 for the exact-estimate baseline).
	Fracs []float64
	// Model selects the noise shape (default NoiseUniform).
	Model NoiseModel
	// Bias applies fixed per-kind estimate bias at every point, on top of
	// Fracs.
	Bias map[ProcKind]float64
	// Events injects the same platform degradation at every point.
	Events []DegradeEvent
	// Seed drives the noise draws; each workload perturbs with its own
	// derived seed so suite averages do not share one noise realisation.
	Seed int64
	// Arrivals optionally paces each workload's stream (index into
	// Workloads); nil means the closed submit-at-zero model.
	Arrivals func(w *Workload, i int) ([]float64, error)
}

// RobustnessPoint is one (noise level, policy) cell of a robustness sweep,
// aggregated over the config's workload suite.
type RobustnessPoint struct {
	Policy string
	// Frac is the noise magnitude of this operating point.
	Frac float64
	// MakespanMs is the suite-mean makespan when the policy decides on
	// clean estimates while the platform follows the perturbed times.
	MakespanMs float64
	// OracleMs is the suite-mean makespan of the same policy given the
	// perturbed table as its estimates (perfect information, same
	// degradation) — the noise-free-decision baseline.
	OracleMs float64
	// RegretPct is the relative makespan excess over the oracle:
	// (MakespanMs − OracleMs) / OracleMs × 100. Positive regret is the
	// price of deciding on wrong estimates; small regret at large Frac
	// means the policy is robust.
	RegretPct float64
	// P99SojournMs is the exact 99th-percentile sojourn (arrival → finish)
	// over every kernel of every workload in the suite.
	P99SojournMs float64
}

// RunRobustness sweeps noise magnitude × policy over the workload suite:
// at every point each policy runs twice per workload — once deciding on
// clean estimates while the platform follows a perturbed table (plus any
// degradation events), once with perfect information as the regret
// baseline — all fanned through the shared batch worker pool. Points come
// back frac-major, then policy, in config order. Everything is seeded and
// aggregation is order-fixed, so results are identical across reruns and
// worker counts.
func RunRobustness(ctx context.Context, cfg RobustnessConfig) ([]RobustnessPoint, error) {
	if len(cfg.Workloads) == 0 || cfg.Machine == nil {
		return nil, fmt.Errorf("apt: RunRobustness requires workloads and a machine")
	}
	if len(cfg.Policies) == 0 || len(cfg.Fracs) == 0 {
		return nil, fmt.Errorf("apt: RunRobustness requires at least one policy and one noise level")
	}
	if err := checkEventProcs(cfg.Events, cfg.Machine); err != nil {
		return nil, err
	}
	// Per-workload arrival schedules are generated once and shared by every
	// (frac, policy, oracle) combination, so the sweep axis is purely the
	// noise.
	arrivals := make([][]float64, len(cfg.Workloads))
	if cfg.Arrivals != nil {
		for i, w := range cfg.Workloads {
			a, err := cfg.Arrivals(w, i)
			if err != nil {
				return nil, fmt.Errorf("apt: arrivals for workload %d: %w", i, err)
			}
			arrivals[i] = a
		}
	}

	// Two configs per (point, workload): the noisy-estimate run and its
	// oracle twin, which must share the exact same perturbed table (same
	// seed) to make regret well defined.
	nw := len(cfg.Workloads)
	points := make([]RobustnessPoint, 0, len(cfg.Fracs)*len(cfg.Policies))
	var runs []RunConfig
	for _, frac := range cfg.Fracs {
		for _, pol := range cfg.Policies {
			points = append(points, RobustnessPoint{Policy: pol.Name(), Frac: frac})
			for wi, w := range cfg.Workloads {
				noisy := Options{Arrivals: arrivals[wi], Perturb: &Perturbation{
					Noise:  Noise{Model: cfg.Model, Frac: frac, Bias: cfg.Bias, Seed: cfg.Seed + int64(wi)*1_000_003},
					Events: cfg.Events,
				}}
				oracle := noisy
				op := *noisy.Perturb
				op.Oracle = true
				oracle.Perturb = &op
				runs = append(runs,
					RunConfig{Workload: w, Machine: cfg.Machine, Policy: pol, Options: &noisy},
					RunConfig{Workload: w, Machine: cfg.Machine, Policy: pol, Options: &oracle},
				)
			}
		}
	}

	results, err := RunBatch(ctx, runs, nil)
	if err != nil {
		return nil, err
	}

	var sojourns []float64
	for pi := range points {
		sojourns = sojourns[:0]
		var mkSum, orSum float64
		for wi := 0; wi < nw; wi++ {
			noisy := results[(pi*nw+wi)*2]
			oracle := results[(pi*nw+wi)*2+1]
			mkSum += noisy.MakespanMs
			orSum += oracle.MakespanMs
			for i := range noisy.res.Placements {
				sojourns = append(sojourns, noisy.res.Placements[i].Sojourn())
			}
		}
		points[pi].MakespanMs = mkSum / float64(nw)
		points[pi].OracleMs = orSum / float64(nw)
		if points[pi].OracleMs > 0 {
			points[pi].RegretPct = (points[pi].MakespanMs - points[pi].OracleMs) / points[pi].OracleMs * 100
		}
		sort.Float64s(sojourns)
		points[pi].P99SojournMs = stats.Quantile(sojourns, 0.99)
	}
	return points, nil
}
