// Package online applies the APT scheduling rule to real work at runtime.
//
// Where repro/apt simulates schedules against a measured lookup table,
// this package dispatches actual Go functions onto a fixed set of worker
// "processors" (one goroutine each), deciding placements live with the
// thesis's Algorithm 1: run a task on its estimated-fastest processor if
// that processor is idle, otherwise on the cheapest idle alternative whose
// estimated execution-plus-transfer cost stays within α times the best
// estimate, otherwise keep it queued until the best processor frees up.
//
// The scheduler is built for sustained traffic from many submitters:
//
//   - The submit path is striped. When the system keeps up (nothing
//     waiting), placement claims an idle processor with a single
//     compare-and-swap and hands the task straight to that processor's run
//     queue — no global lock is taken, so submit throughput scales with
//     processor and submitter count.
//   - Waiting tasks go to a bounded admission queue (per-stripe locks on
//     the way in). Submit rejects with ErrQueueFull when the bound is hit;
//     SubmitCtx blocks until space frees or the context is cancelled.
//   - A single sweeper goroutine restores global FCFS order among waiters
//     and re-applies the placement rule whenever processors free up.
//     Completions coalesce into batched wakeups: however many tasks finish
//     while a sweep is running, at most one more sweep is triggered.
//   - SubmitGraph accepts a whole dependency graph (a DAG of tasks) and
//     releases each task the moment its predecessors finish, using the
//     same CSR adjacency the simulator's data layer uses.
//   - Every task is stamped at arrival, execution start and finish;
//     Stats reports sojourn (arrival → finish) and queueing-delay
//     percentiles from mergeable per-processor histograms, plus an
//     optionally auto-tuned α (see AutoTuneConfig).
//
// Typical use — a host process steering work between a CPU pool and
// accelerator command queues, with per-device time estimates from past
// profiling:
//
//	s, _ := online.New(3, 4) // three processors, α = 4
//	s.Start()
//	h, _ := s.Submit(online.Task{
//	    Name:  "matmul",
//	    EstMs: []float64{260, 0.1, 9500}, // CPU, GPU, FPGA estimates
//	    Run:   func(ctx context.Context, p online.ProcID) error { ... },
//	})
//	res := <-h.Done
//	s.Close()
//
// The scheduler is safe for concurrent Submit, SubmitCtx, SubmitGraph and
// Stats calls. Close fails queued work; Drain finishes it first.
package online

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// ProcID indexes a processor (worker) of the scheduler.
type ProcID int

// Task is one unit of work.
type Task struct {
	// Name labels the task in results and statistics.
	Name string
	// EstMs estimates the task's execution time on each processor; it must
	// have exactly one positive entry per processor. The relative values
	// drive placement exactly like the thesis's lookup table.
	EstMs []float64
	// XferMs optionally estimates the input-staging cost per processor
	// (zero-filled when nil). It participates in the alternative-processor
	// threshold test, like the transfer term of Algorithm 1.
	XferMs []float64
	// Run executes the task on the chosen processor. A nil Run is a no-op
	// (useful for tests and draining).
	Run func(ctx context.Context, p ProcID) error
	// TimeoutMs bounds one execution attempt in milliseconds. 0 inherits
	// Config.DefaultTimeoutMs; negative disables the bound for this task
	// even when a default is set. A timed-out attempt frees its processor
	// immediately and counts as a failure (ErrTimeout), subject to retry.
	TimeoutMs float64
	// Payload carries opaque caller data through Snapshot and Restore: Run
	// functions cannot be serialised, so a snapshot records the payload
	// instead and the restoring process rebuilds Run from it (see
	// RebuildFunc). The scheduler never interprets it.
	Payload json.RawMessage

	// restoredAttempts seeds the attempt counter when a snapshot is
	// restored, so a task's retry budget spans process restarts.
	restoredAttempts int
}

// Result reports one finished task.
type Result struct {
	Task Task
	Proc ProcID
	// Alt is true when the task ran on a non-optimal processor via the
	// threshold rule.
	Alt bool
	// SojournMs is the measured arrival→finish latency and QueueWaitMs
	// the arrival→execution-start delay, in milliseconds (for graph
	// tasks, arrival is the moment the last dependency finished). Both
	// are zero for tasks that never started.
	SojournMs   float64
	QueueWaitMs float64
	// Attempts is how many times the task was executed (1 without retries;
	// 0 for tasks that never started).
	Attempts int
	// Err is the error returned by Run, or the scheduler's cancellation
	// error. When the last of several attempts failed, Err wraps that
	// attempt's error (errors.Is still matches ErrTimeout etc.).
	Err error
}

// Handle tracks a submitted task.
type Handle struct {
	// Done receives exactly one Result when the task finishes.
	Done <-chan Result
}

// LatencySummary condenses a latency distribution observed by the live
// scheduler: counts, extrema and percentile estimates in milliseconds.
// Percentiles come from mergeable log-bucketed histograms (one per
// processor, merged on demand), so they carry the histograms' 5% relative
// error bound but cost O(log range) memory regardless of traffic volume.
type LatencySummary struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	MinMs  float64 `json:"min_ms"`
	MaxMs  float64 `json:"max_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// Stats aggregates scheduler behaviour since Start. After Close (or Drain)
// returns, the snapshot is final: every later Stats call returns the same
// values, published exactly once by the drain path.
type Stats struct {
	// Submitted counts accepted tasks (including graph-released ones);
	// Rejected counts ErrQueueFull refusals and cancelled SubmitCtx waits.
	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	Rejected  int `json:"rejected"`
	// Queued is the number of tasks currently waiting for a processor.
	Queued         int   `json:"queued"`
	AltAssignments int   `json:"alt_assignments"`
	PerProc        []int `json:"per_proc"` // tasks completed per processor
	// PerProcBusyMs is the cumulative wall-clock execution time per
	// processor in milliseconds — with UptimeMs it yields per-processor
	// utilisation.
	PerProcBusyMs []float64 `json:"per_proc_busy_ms"`
	// UptimeMs is the wall-clock time since Start in milliseconds (frozen
	// in the final post-Close snapshot).
	UptimeMs float64 `json:"uptime_ms"`
	// Alpha is the current flexibility factor — the configured value, or
	// the live one when auto-tuning is enabled.
	Alpha float64 `json:"alpha"`
	// Failed counts tasks that settled with an error (after exhausting any
	// retry budget); Settled counts all delivered results, success or not.
	Failed  int `json:"failed"`
	Settled int `json:"settled"`
	// Retries counts re-executions beyond each task's first attempt;
	// Timeouts and Panics count attempts that ended by ErrTimeout or a
	// recovered panic (both also count as failed attempts for the breaker).
	Retries  int `json:"retries"`
	Timeouts int `json:"timeouts"`
	Panics   int `json:"panics"`
	// BreakerTrips counts circuit-breaker open transitions across all
	// processors; PerProcHealthy is each processor's live placement
	// eligibility (false while its breaker is open).
	BreakerTrips   int    `json:"breaker_trips"`
	PerProcHealthy []bool `json:"per_proc_healthy"`
	// Sojourn is the arrival→finish latency distribution; QueueWait the
	// arrival→execution-start distribution.
	Sojourn   LatencySummary `json:"sojourn"`
	QueueWait LatencySummary `json:"queue_wait"`
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("online: scheduler closed")

// ErrNotStarted is returned by Submit before Start has been called.
var ErrNotStarted = errors.New("online: Submit before Start")

// ErrQueueFull is returned by Submit when the bounded admission queue is at
// its limit. SubmitCtx blocks instead.
var ErrQueueFull = errors.New("online: admission queue full")

// DefaultQueueLimit bounds the admission queue when Config.QueueLimit is 0.
const DefaultQueueLimit = 4096

// histGrowth is the per-bucket growth of the telemetry histograms: 5%
// relative quantile error.
const histGrowth = 1.05

// Config parameterises a Scheduler beyond the New shorthand.
type Config struct {
	// Procs is the number of worker processors (required, > 0).
	Procs int
	// Alpha is the flexibility factor (>= 1; 1 reproduces MET's strict
	// waiting). With AutoTune set it is only the starting value.
	Alpha float64
	// QueueLimit bounds how many tasks may wait for a processor at once:
	// 0 means DefaultQueueLimit, negative means unbounded. Graph-internal
	// releases (successors of finished tasks) are exempt — their graph was
	// admitted as a unit.
	QueueLimit int
	// AutoTune, when non-nil, enables the live α adjustment loop.
	AutoTune *AutoTuneConfig
	// TraceDepth, when positive, keeps a ring buffer of the last
	// TraceDepth completions for placement-trace export (see Trace). Zero
	// disables tracing; completion recording then costs one branch.
	TraceDepth int
	// DefaultTimeoutMs bounds each execution attempt of tasks that leave
	// Task.TimeoutMs zero. 0 means no default bound.
	DefaultTimeoutMs float64
	// Retry enables automatic re-execution of failed attempts. The zero
	// value gives every task a single attempt.
	Retry RetryPolicy
	// Breaker, when non-nil, enables per-processor circuit breakers (see
	// BreakerConfig). Nil disables health tracking entirely.
	Breaker *BreakerConfig
}

// Scheduler dispatches tasks onto worker processors with the APT rule.
type Scheduler struct {
	np           int
	qlimit       int
	tune         *AutoTuneConfig
	defTimeoutMs float64
	retry        RetryPolicy
	brk          *BreakerConfig

	alphaBits atomic.Uint64 // float64 bits of the live α
	seq       atomic.Uint64 // global submission order stamp
	queued    atomic.Int64  // tasks waiting (stripes + pending)
	inflight  atomic.Int64  // submit calls in progress (close gate)
	submitted atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	// settled counts tasks whose result has been fully delivered,
	// including any graph successor releases the delivery triggered; Drain
	// waits on settled == submitted, which completed alone cannot express
	// (a completed task may still be about to release successors).
	settled atomic.Int64
	waiters atomic.Int64 // blocked SubmitCtx callers

	// Fault-tolerance counters, recorded on the completion path only —
	// the clean submit hot path never touches them.
	failed       atomic.Int64
	retries      atomic.Int64
	timeouts     atomic.Int64
	panics       atomic.Int64
	breakerTrips atomic.Int64

	// rt parks tasks waiting out a retry backoff. Map ownership arbitrates
	// delivery exactly once: whoever deletes a task's entry (its fired
	// timer, or failRetries at shutdown) decides its fate.
	rt struct {
		mu sync.Mutex
		m  map[*liveTask]*time.Timer
	}

	// lifeMu serialises the Start/Close lifecycle transitions, so a Close
	// racing Start can never observe started==true with the context and
	// sweeper channel not yet assigned.
	lifeMu   sync.Mutex
	started  atomic.Bool
	draining atomic.Bool // external admission stopped (Drain or Close)
	closed   atomic.Bool // hard-closed: internal releases rejected too

	stripes []stripe
	smask   uint64
	procs   []proc

	// startNs is Start's wall-clock instant in Unix nanoseconds (0 before
	// Start); trace timestamps and Stats.UptimeMs are measured from it.
	startNs atomic.Int64

	// traceDepth and the trace ring record the last N completions when
	// Config.TraceDepth is positive. Workers append on the completion
	// path; Trace copies chronologically. See trace.go.
	traceDepth int
	trace      traceRing

	// graphs tracks in-flight SubmitGraph jobs so Snapshot can serialise
	// their unfinished frontiers; jobs unregister when they complete.
	graphs struct {
		mu   sync.Mutex
		next uint64
		m    map[uint64]*graphJob
	}

	wakeCh    chan struct{} // capacity 1: batched sweep wakeups
	sweepDone chan struct{}

	spaceMu sync.Mutex
	spaceCh chan struct{} // closed and replaced to broadcast freed space

	// pend is the sweeper's FCFS queue, ordered by seq. The mutex is only
	// contended by Stats/Drain/tests — the hot submit path never touches
	// it. scratch is merge workspace, cleared after every use.
	pend struct {
		mu      sync.Mutex
		q       []*liveTask
		scratch []*liveTask
	}

	// placedBuf is the sweeper's private staging area for tasks admitted
	// by a sweep: placements are collected under pend.mu, but the run-queue
	// sends happen only after the unlock (never block while holding a
	// lock). Only the single sweeper goroutine touches it; cleared after
	// every sweep so no *liveTask outlives its dispatch.
	placedBuf []placedTask

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // workers

	tuner tuner

	final atomic.Pointer[Stats] // published exactly once by the drain path
}

// stripe is one lane of the striped admission queue. Submitters pick a
// lane by sequence number, so sustained traffic spreads lock acquisitions
// across lanes instead of serialising on one mutex.
type stripe struct {
	mu sync.Mutex
	q  []*liveTask
	_  [32]byte // keep neighbouring stripes off one cache line
}

// proc is one worker processor: an idle/busy claim flag, a health flag
// cleared while the circuit breaker is open, a run queue the placement
// path hands claimed tasks to, breaker state (completion path only) and
// single-writer telemetry.
type proc struct {
	busy    atomic.Bool
	healthy atomic.Bool
	runq    chan *liveTask
	brk     breaker
	tele    telemetry
	_       [32]byte
}

// telemetry is per-processor so recording needs no cross-processor
// coordination; Stats merges the shards on demand (the histograms merge
// exactly — see stats.Histogram).
type telemetry struct {
	mu        sync.Mutex
	completed int
	alt       int
	regretSum float64 // Σ chosen-cost / best-estimate over alt assignments
	busyMs    float64 // cumulative execution wall-clock, for utilisation
	sojourn   *stats.Histogram
	qwait     *stats.Histogram
}

type liveTask struct {
	task    Task
	done    chan Result // capacity 1; nil for graph-internal tasks
	onDone  func(Result)
	seq     uint64
	arrival time.Time
	pmin    int
	bestEst float64
	alt     bool
	ratio   float64 // chosen cost / best estimate (1 on the best proc)
	// timeout is the resolved per-attempt execution bound (0: none).
	timeout time.Duration
	// attempt counts executions started; atomic because Snapshot reads it
	// while a worker may be incrementing.
	attempt atomic.Int32
	// avoid is the processor whose failure caused the pending retry (-1:
	// none). Placement prefers any other viable processor, falling back to
	// avoid only when nothing else can take the task. Written by the
	// failing worker, read by the sweeper; the retry-timer handoff orders
	// the accesses.
	avoid int
}

// New returns a scheduler for numProcs processors with flexibility factor
// alpha (alpha >= 1; 1 reproduces MET's strict waiting) and the default
// admission-queue bound.
func New(numProcs int, alpha float64) (*Scheduler, error) {
	return NewWithConfig(Config{Procs: numProcs, Alpha: alpha})
}

// NewWithConfig returns a scheduler for the given configuration.
func NewWithConfig(cfg Config) (*Scheduler, error) {
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("online: need at least one processor, got %d", cfg.Procs)
	}
	if cfg.Alpha < 1 || math.IsNaN(cfg.Alpha) || math.IsInf(cfg.Alpha, 0) {
		return nil, fmt.Errorf("online: flexibility factor must be >= 1, got %v", cfg.Alpha)
	}
	tune, err := cfg.AutoTune.withDefaults(cfg.Alpha)
	if err != nil {
		return nil, err
	}
	retry, err := cfg.Retry.withDefaults()
	if err != nil {
		return nil, err
	}
	brk, err := cfg.Breaker.withDefaults()
	if err != nil {
		return nil, err
	}
	if math.IsNaN(cfg.DefaultTimeoutMs) || math.IsInf(cfg.DefaultTimeoutMs, 0) {
		return nil, fmt.Errorf("online: DefaultTimeoutMs must be finite, got %v", cfg.DefaultTimeoutMs)
	}
	qlimit := cfg.QueueLimit
	if qlimit == 0 {
		qlimit = DefaultQueueLimit
	}
	ns := 4
	for ns < cfg.Procs && ns < 64 {
		ns <<= 1
	}
	if cfg.TraceDepth < 0 {
		return nil, fmt.Errorf("online: TraceDepth must be >= 0, got %d", cfg.TraceDepth)
	}
	s := &Scheduler{
		np:           cfg.Procs,
		qlimit:       qlimit,
		tune:         tune,
		defTimeoutMs: cfg.DefaultTimeoutMs,
		retry:        retry,
		brk:          brk,
		stripes:      make([]stripe, ns),
		smask:        uint64(ns - 1),
		procs:        make([]proc, cfg.Procs),
		wakeCh:       make(chan struct{}, 1),
		spaceCh:      make(chan struct{}),
		traceDepth:   cfg.TraceDepth,
	}
	if cfg.TraceDepth > 0 {
		s.trace.buf = make([]TraceEvent, 0, cfg.TraceDepth)
	}
	s.graphs.m = make(map[uint64]*graphJob)
	s.rt.m = make(map[*liveTask]*time.Timer)
	s.alphaBits.Store(math.Float64bits(cfg.Alpha))
	for i := range s.procs {
		s.procs[i].runq = make(chan *liveTask, 1)
		s.procs[i].healthy.Store(true)
		if brk != nil {
			s.procs[i].brk.win = make([]int8, brk.Window)
		}
		s.procs[i].tele.sojourn, _ = stats.NewHistogram(histGrowth)
		s.procs[i].tele.qwait, _ = stats.NewHistogram(histGrowth)
	}
	return s, nil
}

// Alpha returns the current flexibility factor (live, if auto-tuning).
func (s *Scheduler) Alpha() float64 {
	return math.Float64frombits(s.alphaBits.Load())
}

// NumProcs returns the number of worker processors.
func (s *Scheduler) NumProcs() int { return s.np }

// Start launches the workers and the sweeper. It must be called once
// before submitting. Starting an already-started or already-closed
// scheduler is a no-op.
func (s *Scheduler) Start() {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.started.Load() || s.closed.Load() {
		return
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.sweepDone = make(chan struct{})
	s.startNs.Store(time.Now().UnixNano())
	s.wg.Add(s.np)
	for p := 0; p < s.np; p++ {
		go s.worker(p)
	}
	go s.sweeper()
	s.started.Store(true)
}

// Submit queues a task and returns a handle delivering its Result. Tasks
// are considered in submission order (first come, first serve), matching
// the thesis's queue; when nothing is waiting the task may be placed and
// dispatched directly on the submit path. Submit fails fast with
// ErrQueueFull when the admission queue is at its bound.
func (s *Scheduler) Submit(t Task) (*Handle, error) {
	lt, err := s.prepare(t, nil)
	if err != nil {
		return nil, err
	}
	if err := s.submitTask(lt, false); err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.rejected.Add(1)
		}
		return nil, err
	}
	return &Handle{Done: lt.done}, nil
}

// SubmitCtx is Submit with backpressure: when the admission queue is full
// it blocks until space frees, the scheduler closes, or ctx is cancelled.
func (s *Scheduler) SubmitCtx(ctx context.Context, t Task) (*Handle, error) {
	lt, err := s.prepare(t, nil)
	if err != nil {
		return nil, err
	}
	// Register as a waiter for the whole call and grab the broadcast
	// channel before each attempt: any sweep that frees space after a
	// failed attempt already sees waiters > 0 and closes the channel we
	// hold, so the wakeup cannot be lost.
	s.waiters.Add(1)
	defer s.waiters.Add(-1)
	for {
		ch := s.spaceWait()
		err := s.submitTask(lt, false)
		if !errors.Is(err, ErrQueueFull) {
			if err != nil {
				return nil, err
			}
			return &Handle{Done: lt.done}, nil
		}
		select {
		case <-ctx.Done():
			s.rejected.Add(1)
			return nil, ctx.Err()
		case <-ch:
		}
	}
}

// prepare validates a task and precomputes its placement inputs.
func (s *Scheduler) prepare(t Task, onDone func(Result)) (*liveTask, error) {
	if len(t.EstMs) != s.np {
		return nil, fmt.Errorf("online: task %q has %d estimates for %d processors", t.Name, len(t.EstMs), s.np)
	}
	pmin := 0
	for p, e := range t.EstMs {
		if !(e > 0) || math.IsInf(e, 1) { // rejects non-positive, NaN and +Inf
			return nil, fmt.Errorf("online: task %q has invalid estimate %v on processor %d (want finite and > 0)", t.Name, e, p)
		}
		if e < t.EstMs[pmin] {
			pmin = p
		}
	}
	if t.XferMs != nil && len(t.XferMs) != s.np {
		return nil, fmt.Errorf("online: task %q has %d transfer estimates for %d processors", t.Name, len(t.XferMs), s.np)
	}
	for p, x := range t.XferMs {
		// A NaN would bar p from ever being an alternative, a negative value
		// would let one slip under α·x, and +Inf is no estimate at all.
		if !(x >= 0) || math.IsInf(x, 1) {
			return nil, fmt.Errorf("online: task %q has invalid transfer estimate %v on processor %d (want finite and >= 0)", t.Name, x, p)
		}
	}
	if math.IsNaN(t.TimeoutMs) || math.IsInf(t.TimeoutMs, 0) {
		return nil, fmt.Errorf("online: task %q has non-finite TimeoutMs %v", t.Name, t.TimeoutMs)
	}
	lt := &liveTask{task: t, onDone: onDone, pmin: pmin, bestEst: t.EstMs[pmin], avoid: -1}
	tms := t.TimeoutMs
	if tms == 0 {
		tms = s.defTimeoutMs
	}
	if tms > 0 {
		lt.timeout = time.Duration(tms * float64(time.Millisecond))
	}
	if t.restoredAttempts > 0 {
		lt.attempt.Store(int32(t.restoredAttempts))
	}
	if onDone == nil {
		lt.done = make(chan Result, 1)
	}
	return lt, nil
}

// submitTask admits one prepared task: direct placement when nothing
// waits, otherwise the admission queue. internal marks graph-released
// tasks, which are admitted during Drain and bypass the queue bound.
// The inflight gate is unwound explicitly on every return path (rather
// than deferred) to keep the per-submit overhead flat.
//
//apt:hotpath
func (s *Scheduler) submitTask(lt *liveTask, internal bool) error {
	s.inflight.Add(1)
	if s.closed.Load() || (!internal && s.draining.Load()) {
		s.inflight.Add(-1)
		return ErrClosed
	}
	if !s.started.Load() {
		s.inflight.Add(-1)
		return ErrNotStarted
	}
	lt.seq = s.seq.Add(1)
	lt.arrival = time.Now()
	// Fast path: with an empty wait queue there is no FCFS order to
	// preserve, so placement can claim a processor lock-free and bypass
	// the sweeper entirely.
	if s.queued.Load() == 0 {
		if p, ok := s.tryPlace(lt); ok {
			s.submitted.Add(1)
			s.dispatch(lt, p)
			s.inflight.Add(-1)
			return nil
		}
	}
	// Count the task before the sweeper can see it: once enqueued it may
	// be placed, run and settled at any moment, and Drain's quiescence
	// check (settled == submitted) must never observe the settle first.
	s.submitted.Add(1)
	if err := s.enqueue(lt, !internal); err != nil {
		s.submitted.Add(-1)
		s.inflight.Add(-1)
		return err
	}
	s.inflight.Add(-1)
	return nil
}

// enqueue pushes a task onto its admission stripe, enforcing the queue
// bound exactly (compare-and-swap, so concurrent submitters cannot
// transiently overshoot and reject each other spuriously).
//
//apt:hotpath
func (s *Scheduler) enqueue(lt *liveTask, bounded bool) error {
	if bounded && s.qlimit > 0 {
		for {
			n := s.queued.Load()
			if n >= int64(s.qlimit) {
				return ErrQueueFull
			}
			if s.queued.CompareAndSwap(n, n+1) {
				break
			}
		}
	} else {
		s.queued.Add(1)
	}
	st := &s.stripes[lt.seq&s.smask]
	st.mu.Lock()
	st.q = append(st.q, lt)
	st.mu.Unlock()
	s.wake()
	return nil
}

// tryPlace applies Algorithm 1 to one task against the live idle flags:
// best processor if idle, else cheapest idle alternative within threshold.
// Claims race lock-free: a failed compare-and-swap means another placement
// won that processor, so the scan repeats against the shrunken idle set.
//
// A retrying task first excludes the processor that just failed it
// (lt.avoid) — the thesis's alternative-processor idea applied to failure
// instead of queueing — and falls back to that processor only when no
// other viable placement exists, so a retry can never be stranded behind
// its own preference. Unhealthy processors (open breakers) are excluded
// unconditionally.
//
//apt:hotpath
func (s *Scheduler) tryPlace(lt *liveTask) (ProcID, bool) {
	t := &lt.task
	avoid := lt.avoid
	for pass := 0; pass < 2; pass++ {
		for attempt := 0; attempt <= s.np; attempt++ {
			if lt.pmin != avoid && s.claim(lt.pmin) {
				lt.alt, lt.ratio = false, 1
				return ProcID(lt.pmin), true
			}
			threshold := s.Alpha() * lt.bestEst
			best, bestCost := -1, 0.0
			for p := 0; p < s.np; p++ {
				if p == lt.pmin || p == avoid || s.procs[p].busy.Load() || !s.procs[p].healthy.Load() {
					continue
				}
				cost := t.EstMs[p]
				if t.XferMs != nil {
					cost += t.XferMs[p]
				}
				if cost <= threshold && (best < 0 || cost < bestCost) {
					best, bestCost = p, cost
				}
			}
			if best < 0 {
				break
			}
			if s.claim(best) {
				lt.alt, lt.ratio = true, bestCost/lt.bestEst
				return ProcID(best), true
			}
		}
		if avoid < 0 {
			return 0, false
		}
		// Nothing viable besides the avoided processor: lift the
		// preference and try again rather than stranding the retry.
		avoid = -1
		lt.avoid = -1
	}
	return 0, false
}

// claim marks a processor busy if it is idle and healthy. The health flag
// is re-checked after the claim: a breaker may trip between the first read
// and the compare-and-swap (the worker publishes healthy=false before
// releasing busy, but a stale read could still win the race), and
// releasing the claim here keeps "an open breaker never receives
// placements" exact.
//
//apt:hotpath
func (s *Scheduler) claim(p int) bool {
	pr := &s.procs[p]
	if !pr.healthy.Load() {
		return false
	}
	if !pr.busy.CompareAndSwap(false, true) {
		return false
	}
	if !pr.healthy.Load() {
		pr.busy.Store(false)
		return false
	}
	return true
}

// dispatch hands a claimed task to its processor's run queue. The claim
// protocol guarantees at most one outstanding task per processor, so the
// capacity-1 send never blocks.
//
//apt:hotpath
func (s *Scheduler) dispatch(lt *liveTask, p ProcID) {
	s.procs[p].runq <- lt
}

// wake triggers a sweep; concurrent wakes while one is pending coalesce.
//
//apt:hotpath
func (s *Scheduler) wake() {
	select {
	case s.wakeCh <- struct{}{}:
	default:
	}
}

func (s *Scheduler) spaceWait() <-chan struct{} {
	s.spaceMu.Lock()
	ch := s.spaceCh
	s.spaceMu.Unlock()
	return ch
}

func (s *Scheduler) spaceBroadcast() {
	s.spaceMu.Lock()
	close(s.spaceCh)
	s.spaceCh = make(chan struct{})
	s.spaceMu.Unlock()
}

// sweeper serialises waiting-queue decisions: it restores global FCFS
// order across stripes and re-applies the placement rule after batches of
// completions. On shutdown it fails everything still waiting.
func (s *Scheduler) sweeper() {
	defer close(s.sweepDone)
	for {
		select {
		case <-s.wakeCh:
			// closed is set before the context is cancelled, so a wakeup
			// racing Close cannot launch tasks the close path is about to
			// fail (Drain only sets draining; sweeping continues).
			if s.closed.Load() {
				s.failPending()
				return
			}
			s.sweep()
			s.tuner.maybeTune(s)
		case <-s.ctx.Done():
			s.failPending()
			return
		}
	}
}

// placedTask is one sweep admission staged for dispatch after unlock.
type placedTask struct {
	lt *liveTask
	p  ProcID
}

// sweep drains the stripes into the FCFS queue and walks it in submission
// order, dispatching every task the placement rule admits right now.
// Placement (which claims processors via CAS) runs under pend.mu; the
// run-queue sends are deferred until after the unlock so the sweeper never
// performs a channel send while holding the lock. The claims made under
// the lock keep each target processor reserved until its send lands, so
// the deferred sends preserve the capacity-1 never-blocks invariant and
// the FCFS dispatch order.
func (s *Scheduler) sweep() {
	dis := s.placedBuf[:0]
	s.pend.mu.Lock()
	q := s.gatherLocked()
	w := 0
	for i := 0; i < len(q); i++ {
		lt := q[i]
		if p, ok := s.tryPlace(lt); ok {
			dis = append(dis, placedTask{lt: lt, p: p})
			continue
		}
		q[w] = lt
		w++
	}
	// Nil the vacated tail so the backing array keeps no *liveTask (and
	// captured closures) reachable after dispatch.
	for i := w; i < len(q); i++ {
		q[i] = nil
	}
	s.pend.q = q[:w]
	s.pend.mu.Unlock()
	for i := range dis {
		s.dispatch(dis[i].lt, dis[i].p)
		dis[i] = placedTask{} // drop the reference once handed over
	}
	s.placedBuf = dis[:0]
	if placed := len(dis); placed > 0 {
		s.queued.Add(int64(-placed))
		if s.waiters.Load() > 0 {
			s.spaceBroadcast()
		}
	}
}

// gatherLocked moves every stripe's tasks into the pending queue and
// restores global submission order by sequence stamp. Only the newly
// gathered batch is sorted; a surviving backlog is already ordered from
// the previous sweep and is merged in O(backlog + batch), so a large
// standing queue does not pay a full re-sort per sweep.
func (s *Scheduler) gatherLocked() []*liveTask {
	q := s.pend.q
	n0 := len(q)
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		if len(st.q) > 0 {
			q = append(q, st.q...)
			for j := range st.q {
				st.q[j] = nil
			}
			st.q = st.q[:0]
		}
		st.mu.Unlock()
	}
	batch := q[n0:]
	if len(batch) == 0 {
		return q
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].seq < batch[j].seq })
	if n0 == 0 || q[n0-1].seq < batch[0].seq {
		// Whole batch is newer than the backlog — already in order.
		return q
	}
	// Merge the two sorted runs backwards, with the batch copied out so
	// the merge can write in place.
	scratch := append(s.pend.scratch[:0], batch...)
	i, j, w := n0-1, len(scratch)-1, len(q)-1
	for j >= 0 {
		if i >= 0 && q[i].seq > scratch[j].seq {
			q[w] = q[i]
			i--
		} else {
			q[w] = scratch[j]
			j--
		}
		w--
	}
	for k := range scratch {
		scratch[k] = nil
	}
	s.pend.scratch = scratch[:0]
	return q
}

// failPending delivers ErrClosed to every waiting task at shutdown — both
// the admission queue and the retry registry.
func (s *Scheduler) failPending() {
	s.pend.mu.Lock()
	q := s.gatherLocked()
	s.pend.q = nil
	s.pend.mu.Unlock()
	s.failRetries()
	if len(q) == 0 {
		return
	}
	s.queued.Add(int64(-len(q)))
	for _, lt := range q {
		s.deliver(lt, Result{Task: lt.task, Proc: -1, Attempts: int(lt.attempt.Load()), Err: ErrClosed})
	}
	s.spaceBroadcast()
}

func (s *Scheduler) deliver(lt *liveTask, res Result) {
	if lt.done != nil {
		lt.done <- res
	}
	if lt.onDone != nil {
		lt.onDone(res)
	}
	s.settled.Add(1)
}

// worker runs one processor: receive a claimed task, execute one attempt
// (bounded by the task's timeout, panics recovered), record telemetry and
// the breaker outcome, release the claim and trigger a sweep. A failed
// attempt with retry budget left parks the task in the retry registry
// instead of settling it; the task re-enters placement when its backoff
// expires. The breaker outcome is recorded before the busy release, so a
// trip withdraws the processor before anyone can claim it again.
func (s *Scheduler) worker(p int) {
	defer s.wg.Done()
	pr := &s.procs[p]
	for lt := range pr.runq {
		attempt := int(lt.attempt.Add(1))
		start := time.Now()
		err := s.execute(lt, p)
		finish := time.Now()
		timedOut := false
		if err != nil {
			if errors.Is(err, ErrTimeout) {
				timedOut = true
				s.timeouts.Add(1)
			} else if errors.Is(err, ErrPanicked) {
				s.panics.Add(1)
			}
		}
		retrying := err != nil && s.shouldRetry(attempt, err)
		sojourn := durMs(finish.Sub(lt.arrival))
		qwait := durMs(start.Sub(lt.arrival))
		actual := durMs(finish.Sub(start))
		t := &pr.tele
		t.mu.Lock()
		t.busyMs += actual
		if !retrying {
			t.completed++
			if lt.alt {
				t.alt++
				t.regretSum += lt.ratio
			}
			t.sojourn.Add(sojourn)
			t.qwait.Add(qwait)
		}
		t.mu.Unlock()
		if s.traceDepth > 0 {
			start0 := time.Unix(0, s.startNs.Load())
			s.recordTrace(TraceEvent{
				Seq:         lt.seq,
				Name:        lt.task.Name,
				Proc:        ProcID(p),
				Alt:         lt.alt,
				Attempt:     attempt,
				ArrivalMs:   durMs(lt.arrival.Sub(start0)),
				StartMs:     durMs(start.Sub(start0)),
				FinishMs:    durMs(finish.Sub(start0)),
				QueueWaitMs: qwait,
				EstMs:       lt.task.EstMs[p],
				BestEstMs:   lt.bestEst,
				ActualMs:    actual,
				Failed:      err != nil,
			})
		}
		s.recordOutcome(p, err != nil, timedOut)
		if retrying {
			s.retries.Add(1)
			lt.avoid = p
			pr.busy.Store(false)
			s.wake()
			s.retryLater(lt, attempt)
			continue
		}
		s.completed.Add(1)
		if err != nil {
			s.failed.Add(1)
			if attempt > 1 {
				err = fmt.Errorf("online: %d attempts exhausted: %w", attempt, err)
			}
		}
		pr.busy.Store(false)
		s.wake()
		s.deliver(lt, Result{
			Task: lt.task, Proc: ProcID(p), Alt: lt.alt,
			SojournMs: sojourn, QueueWaitMs: qwait, Attempts: attempt, Err: err,
		})
	}
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Close stops accepting work, cancels the run context passed to in-flight
// tasks, fails queued tasks with ErrClosed, waits for workers to exit and
// publishes the final Stats snapshot. It is idempotent.
func (s *Scheduler) Close() {
	s.shutdown()
}

// Drain gracefully quiesces the scheduler: it stops accepting external
// work immediately (graph successors keep releasing), waits until every
// admitted task has finished or ctx expires, then closes. On timeout the
// remaining tasks fail with ErrClosed and ctx's error is returned.
func (s *Scheduler) Drain(ctx context.Context) error {
	err := s.Quiesce(ctx)
	if err != nil && !s.started.Load() {
		return err // never started; nothing to shut down
	}
	s.shutdown()
	return err
}

// Quiesce is the first half of Drain: it stops accepting external work
// (graph successors keep releasing) and waits until every admitted task
// has settled or ctx expires, returning ctx's error on timeout. Unlike
// Drain it does not shut the scheduler down — workers keep running and
// still-queued tasks stay queued, so on timeout the caller can capture
// them with Snapshot before calling Close.
func (s *Scheduler) Quiesce(ctx context.Context) error {
	if !s.started.Load() {
		return fmt.Errorf("online: Quiesce before Start")
	}
	s.draining.Store(true)
	s.spaceBroadcast() // wake SubmitCtx waiters so they observe the close
	// Let racing Submit calls settle so the quiescence condition below
	// cannot miss a task admitted concurrently with the drain request.
	for s.inflight.Load() != 0 {
		runtime.Gosched()
	}
	for s.settled.Load() < s.submitted.Load() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
	return nil
}

// shutdown is the single exit path shared by Close and Drain.
func (s *Scheduler) shutdown() {
	s.lifeMu.Lock()
	if !s.started.Load() {
		// Never started: nothing is running; just refuse future work
		// (including a later Start, which checks closed).
		s.draining.Store(true)
		s.closed.Store(true)
		s.lifeMu.Unlock()
		return
	}
	first := s.closed.CompareAndSwap(false, true)
	s.lifeMu.Unlock()
	if first {
		s.draining.Store(true)
		s.spaceBroadcast()
		// Wait out in-progress submit calls: after this, nobody but the
		// sweeper can hand tasks to run queues.
		for s.inflight.Load() != 0 {
			runtime.Gosched()
		}
		s.cancel()
		<-s.sweepDone
		for p := range s.procs {
			close(s.procs[p].runq)
		}
		s.wg.Wait()
		// Workers are gone; any retry a final attempt registered has been
		// (or will be, when its timer fires) settled with ErrClosed via the
		// closed check in retryLater/requeue. Sweep the registry once more
		// so the final snapshot sees those settles, then drop the cooldown
		// timers.
		s.failRetries()
		s.stopBreakerTimers()
		snap := s.snapshot()
		s.final.Store(&snap)
	} else {
		// Concurrent or repeated Close: wait for the first one to finish.
		<-s.sweepDone
		s.wg.Wait()
		for s.final.Load() == nil {
			runtime.Gosched()
		}
	}
}

// Stats returns a snapshot of the scheduler's counters and latency
// distributions. After Close it returns the final snapshot, identical on
// every call.
func (s *Scheduler) Stats() Stats {
	if f := s.final.Load(); f != nil {
		return f.clone()
	}
	return s.snapshot()
}

func (st *Stats) clone() Stats {
	out := *st
	out.PerProc = append([]int(nil), st.PerProc...)
	out.PerProcBusyMs = append([]float64(nil), st.PerProcBusyMs...)
	out.PerProcHealthy = append([]bool(nil), st.PerProcHealthy...)
	return out
}

// snapshot merges the per-processor telemetry shards into one Stats.
func (s *Scheduler) snapshot() Stats {
	out := Stats{
		Submitted:      int(s.submitted.Load()),
		Completed:      int(s.completed.Load()),
		Rejected:       int(s.rejected.Load()),
		Queued:         int(s.queued.Load()),
		Failed:         int(s.failed.Load()),
		Settled:        int(s.settled.Load()),
		Retries:        int(s.retries.Load()),
		Timeouts:       int(s.timeouts.Load()),
		Panics:         int(s.panics.Load()),
		BreakerTrips:   int(s.breakerTrips.Load()),
		Alpha:          s.Alpha(),
		PerProc:        make([]int, s.np),
		PerProcBusyMs:  make([]float64, s.np),
		PerProcHealthy: make([]bool, s.np),
	}
	if ns := s.startNs.Load(); ns != 0 {
		out.UptimeMs = durMs(time.Since(time.Unix(0, ns)))
	}
	soj, _ := stats.NewHistogram(histGrowth)
	qw, _ := stats.NewHistogram(histGrowth)
	for p := range s.procs {
		t := &s.procs[p].tele
		t.mu.Lock()
		out.PerProc[p] = t.completed
		out.AltAssignments += t.alt
		out.PerProcBusyMs[p] = t.busyMs
		_ = soj.Merge(t.sojourn)
		_ = qw.Merge(t.qwait)
		t.mu.Unlock()
		out.PerProcHealthy[p] = s.procs[p].healthy.Load()
	}
	out.Sojourn = latencySummary(soj)
	out.QueueWait = latencySummary(qw)
	return out
}

// LatencyHistograms returns merged copies of the live sojourn and
// queue-wait histograms, for full-distribution export (e.g. Prometheus
// bucket series) beyond the percentile summaries in Stats. The copies are
// independent of the scheduler and safe to mutate.
func (s *Scheduler) LatencyHistograms() (sojourn, qwait *stats.Histogram) {
	soj, _ := stats.NewHistogram(histGrowth)
	qw, _ := stats.NewHistogram(histGrowth)
	for p := range s.procs {
		t := &s.procs[p].tele
		t.mu.Lock()
		_ = soj.Merge(t.sojourn)
		_ = qw.Merge(t.qwait)
		t.mu.Unlock()
	}
	return soj, qw
}

func latencySummary(h *stats.Histogram) LatencySummary {
	sum := h.Summary()
	return LatencySummary{
		Count:  sum.Count,
		MeanMs: sum.Mean,
		MinMs:  sum.Min,
		MaxMs:  sum.Max,
		P50Ms:  sum.P50,
		P90Ms:  sum.P90,
		P95Ms:  sum.P95,
		P99Ms:  sum.P99,
	}
}
