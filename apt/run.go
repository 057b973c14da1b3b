package apt

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// newRand is a tiny indirection so the facade never leaks math/rand types.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Options tunes a simulation run. The zero value (or nil) selects the
// paper's model: the measured lookup table and no per-assignment scheduler
// overhead. Every run moves 4-byte elements over concurrent links.
type Options struct {
	// SchedOverheadMs charges a fixed delay per assignment, modelling the
	// scheduler-processing and scheduler-to-processor communication parts
	// of the paper's λ.
	SchedOverheadMs float64
	// Arrivals optionally paces the stream: kernel k is invisible to the
	// scheduler before Arrivals[k] milliseconds. Build schedules with
	// PoissonArrivals or PeriodicArrivals, or supply custom times (one
	// non-negative entry per kernel).
	Arrivals []float64
	// Perturb optionally separates the scheduler's model from the
	// platform's reality: estimate-error noise on the lookup table the
	// hardware follows (policies keep deciding with the clean table) and
	// dynamic platform-degradation events. Nil means exact estimates on a
	// steady platform — the thesis's model. See Perturbation and
	// RunRobustness.
	Perturb *Perturbation
}

// PoissonArrivals returns a streaming-arrival schedule for the workload:
// kernels arrive in stream order separated by exponential gaps with the
// given mean (milliseconds).
func PoissonArrivals(w *Workload, meanGapMs float64, seed int64) ([]float64, error) {
	return workload.PoissonArrivals(w.g, meanGapMs, seed)
}

// PeriodicArrivals returns a streaming-arrival schedule with a fixed gap
// (milliseconds) between consecutive kernels.
func PeriodicArrivals(w *Workload, gapMs float64) ([]float64, error) {
	return workload.PeriodicArrivals(w.g, gapMs)
}

// BurstyConfig shapes BurstyArrivals: mean in-burst gap, mean burst
// duration and mean idle duration, all in milliseconds.
type BurstyConfig = workload.BurstyConfig

// BurstyArrivals returns a Markov-modulated on/off arrival schedule:
// Poisson arrivals with mean gap cfg.BurstGapMs while a burst is on,
// silence while it is off, with exponentially distributed burst and idle
// durations (means cfg.BurstMs and cfg.IdleMs). The classic bursty-traffic
// model: same average rate as a Poisson stream, much harder on tails.
func BurstyArrivals(w *Workload, cfg BurstyConfig, seed int64) ([]float64, error) {
	return workload.BurstyArrivals(w.g, cfg, seed)
}

// DiurnalConfig shapes DiurnalArrivals: mean gap at the average rate, the
// rate cycle's period, and the relative rate swing in [0, 1).
type DiurnalConfig = workload.DiurnalConfig

// DiurnalArrivals returns a non-homogeneous Poisson arrival schedule whose
// rate follows a sinusoidal "time of day" cycle.
func DiurnalArrivals(w *Workload, cfg DiurnalConfig, seed int64) ([]float64, error) {
	return workload.DiurnalArrivals(w.g, cfg, seed)
}

// ReadTrace parses a recorded arrival trace: one non-negative,
// non-decreasing millisecond timestamp per line, with '#' comments and
// blank lines skipped. Use it with TraceStream to shard a long trace into
// stream windows.
func ReadTrace(r io.Reader) ([]float64, error) {
	return workload.ReadTrace(r)
}

// Arrival-schedule validation reasons reported by ArrivalError.
const (
	ArrivalLength      = "length"       // schedule length != kernel count
	ArrivalNegative    = "negative"     // negative or non-finite time
	ArrivalNonMonotone = "non-monotone" // time precedes its predecessor
)

// ArrivalError reports an invalid Options.Arrivals schedule. Run returns
// it directly; RunBatch and RunStream wrap it in a *ConfigError carrying
// the config (shard) index, so batch callers can attribute the failure.
type ArrivalError struct {
	// Kernel is the offending kernel index, or -1 for a length mismatch.
	Kernel int
	// Time is the offending arrival time (0 for a length mismatch).
	Time float64
	// Got and Want are the schedule length and the workload kernel count.
	Got, Want int
	// Reason is one of ArrivalLength, ArrivalNegative, ArrivalNonMonotone.
	Reason string
}

// Error implements error.
func (e *ArrivalError) Error() string {
	switch e.Reason {
	case ArrivalLength:
		return fmt.Sprintf("apt: %d arrival times for %d kernels", e.Got, e.Want)
	case ArrivalNegative:
		return fmt.Sprintf("apt: kernel %d has invalid arrival time %v", e.Kernel, e.Time)
	default:
		return fmt.Sprintf("apt: kernel %d arrival time %v precedes its predecessor (arrivals must be non-decreasing in stream order)",
			e.Kernel, e.Time)
	}
}

// validateArrivals checks an arrival schedule against a kernel count. An
// empty schedule (no pacing) is always valid.
func validateArrivals(kernels int, arrivals []float64) error {
	if len(arrivals) == 0 {
		return nil
	}
	if len(arrivals) != kernels {
		return &ArrivalError{Kernel: -1, Got: len(arrivals), Want: kernels, Reason: ArrivalLength}
	}
	prev := 0.0
	for i, at := range arrivals {
		if at < 0 || math.IsNaN(at) || math.IsInf(at, 0) {
			return &ArrivalError{Kernel: i, Time: at, Got: len(arrivals), Want: kernels, Reason: ArrivalNegative}
		}
		if at < prev {
			return &ArrivalError{Kernel: i, Time: at, Got: len(arrivals), Want: kernels, Reason: ArrivalNonMonotone}
		}
		prev = at
	}
	return nil
}

// KernelRun describes one kernel's lifecycle in a finished run. Times are
// milliseconds since the run started. Kernel and processor indices are
// int32, matching the engine's 32-bit ID space — at a million kernels per
// run the record layout is what bounds resident memory.
type KernelRun struct {
	Kernel      int32
	Name        string
	Proc        int32
	ProcName    string
	ArrivalMs   float64
	ReadyMs     float64
	ExecStartMs float64
	FinishMs    float64
	LambdaMs    float64
	TransferMs  float64
	// SojournMs is the open-system latency arrival → finish; QueueWaitMs
	// is arrival → exec-start (dependency wait, queueing and staging).
	SojournMs   float64
	QueueWaitMs float64
}

// AltStats reports how often APT used an alternative processor (zero for
// other policies).
type AltStats = core.AltStats

// Result is everything a simulation reports. Per-kernel latencies come
// from Kernels, per-processor accounting from Utilisation and EnergyJ.
type Result struct {
	Policy        string
	MakespanMs    float64
	LambdaTotalMs float64
	LambdaAvgMs   float64
	LambdaStdMs   float64
	Alt           AltStats

	res *sim.Result
	sys *platform.System
	wl  *Workload
}

// Run simulates the workload on the machine under the policy and returns
// the metrics. A nil opts selects the defaults.
func Run(w *Workload, m *Machine, p Policy, opts *Options) (*Result, error) {
	if w == nil || m == nil {
		return nil, fmt.Errorf("apt: Run requires a workload and a machine")
	}
	return runOne(nil, RunConfig{Workload: w, Machine: m, Policy: p, Options: opts})
}

// Kernels returns one row per kernel, indexed by kernel ID, describing its
// lifecycle in the run. It builds the rows on each call from the
// schedule the Result holds, so call it once and keep the slice.
func (r *Result) Kernels() []KernelRun {
	kernels, procs := r.wl.g.Kernels(), r.sys.Procs()
	rows := make([]KernelRun, len(r.res.Placements))
	for i := range r.res.Placements {
		pl := &r.res.Placements[i]
		rows[i] = KernelRun{
			Kernel:      int32(pl.Kernel),
			Name:        kernels[pl.Kernel].Name,
			Proc:        int32(pl.Proc),
			ProcName:    procs[pl.Proc].Name,
			ArrivalMs:   pl.Arrival,
			ReadyMs:     pl.Ready,
			ExecStartMs: pl.ExecStart,
			FinishMs:    pl.Finish,
			LambdaMs:    pl.Lambda(),
			TransferMs:  pl.ExecStart - pl.TransferStart,
			SojournMs:   pl.Sojourn(),
			QueueWaitMs: pl.QueueWait(),
		}
	}
	return rows
}

// Gantt renders the schedule as a time-ordered event log.
func (r *Result) Gantt() string {
	var sb strings.Builder
	if err := report.Gantt(&sb, r.res, r.wl.g, r.sys); err != nil {
		return fmt.Sprintf("gantt error: %v", err)
	}
	return sb.String()
}

// Utilisation renders per-processor busy/transfer/idle accounting.
func (r *Result) Utilisation() string {
	var sb strings.Builder
	if err := report.Utilisation(&sb, r.res, r.sys); err != nil {
		return fmt.Sprintf("utilisation error: %v", err)
	}
	return sb.String()
}

// ChromeTrace writes the schedule in Chrome's trace-event format, the one
// aptserve's GET /v1/trace serves; load the output in chrome://tracing or
// https://ui.perfetto.dev to inspect it.
func (r *Result) ChromeTrace(w io.Writer) error {
	return report.WriteChromeTrace(w, r.res, r.wl.g, r.sys)
}

// EnergyJ estimates the schedule's total energy in joules under the given
// active/idle power draws per processor kind. A nil model selects
// representative defaults for the paper's CPU/GPU/FPGA classes (the thesis
// motivates power efficiency but reports no power numbers; see
// platform.DefaultPowerModel).
func (r *Result) EnergyJ(model *PowerModel) (float64, error) {
	pm := platform.DefaultPowerModel()
	if model != nil {
		pm = *model
	}
	if err := pm.Validate(r.sys); err != nil {
		return 0, err
	}
	var total float64
	for _, st := range r.res.ProcStats {
		kind := r.sys.KindOf(st.Proc)
		total += pm.EnergyJ(kind, st.ExecMs+st.XferMs, st.IdleMs)
	}
	return total, nil
}

// PowerModel assigns watt draws per processor kind for EnergyJ.
type PowerModel = platform.PowerModel

// TuneResult is one evaluated candidate of TuneAlpha.
type TuneResult struct {
	Alpha      float64
	MakespanMs float64 // mean across the calibration workloads
}

// defaultTuneAlphas is the candidate grid TuneAlpha uses when none is
// given: the paper's sweep plus intermediate points.
var defaultTuneAlphas = []float64{1, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// TuneAlpha sweeps candidate flexibility factors over calibration
// workloads on the machine and returns the α with the lowest mean
// makespan, plus every evaluated point in candidate order. An exact tie
// goes to the smaller α, the stricter threshold. Nil candidates selects a
// default grid spanning 1–32. The candidate × workload grid runs as one
// RunBatch of closed, exact runs under the default Options. This
// operationalises the thesis's conclusion that the threshold must be tuned
// to the degree of heterogeneity of the system.
func TuneAlpha(calibration []*Workload, m *Machine, candidates []float64) (float64, []TuneResult, error) {
	if m == nil {
		return 0, nil, fmt.Errorf("apt: TuneAlpha requires a machine")
	}
	if len(calibration) == 0 {
		return 0, nil, fmt.Errorf("apt: TuneAlpha needs at least one calibration workload")
	}
	for i, w := range calibration {
		if w == nil {
			return 0, nil, fmt.Errorf("apt: calibration workload %d is nil", i)
		}
	}
	if len(candidates) == 0 {
		candidates = defaultTuneAlphas
	}
	configs := make([]RunConfig, 0, len(candidates)*len(calibration))
	for _, a := range candidates {
		if !(a >= 1) {
			return 0, nil, fmt.Errorf("apt: candidate α %v < 1", a)
		}
		for _, w := range calibration {
			configs = append(configs, RunConfig{Workload: w, Machine: m, Policy: APT(a)})
		}
	}
	results, err := RunBatch(context.TODO(), configs, nil)
	if err != nil {
		return 0, nil, err
	}
	points := make([]TuneResult, len(candidates))
	best := 0
	for i, a := range candidates {
		var total float64
		for _, res := range results[i*len(calibration) : (i+1)*len(calibration)] {
			total += res.MakespanMs
		}
		points[i] = TuneResult{Alpha: a, MakespanMs: total / float64(len(calibration))}
		if c := cmp.Compare(points[i].MakespanMs, points[best].MakespanMs); c < 0 || c == 0 && a < points[best].Alpha {
			best = i
		}
	}
	return points[best].Alpha, points, nil
}

// Compare runs every given policy on the same workload and machine under
// the default Options and returns results in the same order.
func Compare(w *Workload, m *Machine, policies []Policy) ([]*Result, error) {
	out := make([]*Result, len(policies))
	for i, p := range policies {
		res, err := Run(w, m, p, nil)
		if err != nil {
			return nil, fmt.Errorf("apt: policy %s: %w", p.Name(), err)
		}
		out[i] = res
	}
	return out, nil
}
