package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/dfg"
	"repro/internal/heaps"
	"repro/internal/platform"
	"repro/internal/stats"
)

// Assignment binds one kernel to one processor. Returning an assignment
// commits the kernel: it joins the processor's FIFO queue and can no longer
// be reassigned.
type Assignment struct {
	Kernel dfg.KernelID
	Proc   platform.ProcID
}

// Policy is implemented by every scheduling heuristic.
//
// Prepare is called once before simulation with the shared cost oracle;
// static policies (HEFT, PEFT) compute their full schedule here. Select is
// called at time zero and after every event — each kernel completion and
// each paced arrival, once per event even when several share an instant;
// it returns the assignments to commit at the current instant (possibly
// none, if the policy prefers to wait). Dynamic policies must restrict
// themselves to st.AppendReady kernels; static policies may assign any
// unassigned kernel (the engine starts it only once its dependencies
// complete).
//
// The engine consumes the slice returned by Select before the next Select
// call, so policies may reuse one backing array across calls to avoid
// per-event allocation.
//
// # When Prepare reuse is safe
//
// Prepare must be a pure function of its *Costs argument: a Costs is
// immutable once built, so everything Prepare derives from it — ranks, OCT
// tables, planned schedules, scratch sizing — is reusable verbatim
// whenever the same instance is Run again against the identical *Costs
// pointer. The built-in static policies exploit this by memoising Prepare
// on that pointer and only re-arming their per-run release state, which is
// what makes repeated-graph sweeps (α grids, arrival scans, robustness
// fracs) cheap. Reuse is NOT safe for state derived from anything else:
// per-run randomness must be reseeded in every Prepare (MET, AR), per-run
// statistics reset (APT), and nothing may depend on Options or on the
// actual-cost oracle — policies never see those. A policy that violates
// purity must not memoise; the engine always calls Prepare once per Run
// and relies on it to leave the instance in a fresh-run state.
type Policy interface {
	Name() string
	Prepare(c *Costs) error
	Select(st *State) []Assignment
}

// Options tunes engine behaviour beyond the cost model.
type Options struct {
	// SchedOverheadMs is added once per assignment between the moment a
	// processor picks the kernel up and the start of its incoming transfer.
	// It models the paper's first two λ components (scheduler processing
	// and scheduler→processor communication). Default 0.
	SchedOverheadMs float64
	// ArrivalTimes optionally paces the stream: kernel k does not become
	// ready (and is invisible to dynamic policies) before ArrivalTimes[k],
	// even if it has no dependencies. The thesis submits whole streams at
	// t = 0; arrival pacing is this repository's extension for studying λ
	// under realistic streaming. Must be empty or have exactly one finite,
	// non-negative entry per kernel. Successors should not be scheduled to
	// arrive before predecessors; the engine tolerates it (readiness waits
	// for both) but λ then includes the arrival skew.
	ArrivalTimes []float64
	// ActualCosts optionally splits estimation from reality: the policy
	// keeps deciding with the Costs passed to Run (its "lookup table"),
	// while execution and transfers take the times given here. Both must be
	// prepared over the same graph and system. Nil means estimates are
	// exact, the thesis's model. λ baselines (best-exec) come from the
	// actual costs. This is the repository's extension for studying
	// robustness to estimation error.
	ActualCosts *Costs
	// Degrade optionally injects dynamic platform degradation — processors
	// slowing or going offline, links losing bandwidth — into the
	// actual-time path: execution and transfer durations integrate over the
	// time-varying speeds it reports. Policies never see it; their
	// estimates (Costs, BusyUntil) stay nominal, the same split as
	// ActualCosts. Nil means the platform never degrades.
	Degrade Degradation
}

// Placement records the full lifecycle of one kernel in a finished
// simulation. All times are milliseconds since simulation start.
type Placement struct {
	Kernel dfg.KernelID
	Proc   platform.ProcID
	// Arrival is when the kernel entered the stream: its Options
	// .ArrivalTimes entry, or 0 under the thesis's submit-everything-at-
	// zero model. Open-system latency metrics are measured from here.
	Arrival float64
	// Ready is when every dependency had finished (0 for entry kernels).
	Ready float64
	// Assign is when the policy committed the kernel to Proc.
	Assign float64
	// TransferStart is when Proc began receiving the kernel's inputs.
	TransferStart float64
	// ExecStart is when execution proper began.
	ExecStart float64
	// Finish is when execution completed.
	Finish float64
	// BestExecMs is the kernel's execution time on its best processor
	// (pmin) — the baseline against which λ is measured.
	BestExecMs float64
}

// Lambda returns the kernel's λ scheduling delay: everything beyond the
// ideal of executing instantly on the best processor the moment the kernel
// became ready,
//
//	λ = (Finish − Ready) − BestExec.
//
// It covers all three components the paper lists — scheduler processing
// and scheduler→processor communication (the per-assignment overhead),
// waiting on busy processors and on dependent data movement — plus the
// execution-time sacrifice of running on a non-optimal processor, which is
// how policies that never wait but pick terrible processors (SPN, SS, AG)
// accumulate the enormous λ totals of the paper's Tables 11–12.
func (p Placement) Lambda() float64 { return p.Finish - p.Ready - p.BestExecMs }

// Sojourn returns the kernel's open-system latency: the time from entering
// the stream to finishing execution (arrival → finish). Under the closed
// model (no arrival pacing) this is simply the completion time.
func (p Placement) Sojourn() float64 { return p.Finish - p.Arrival }

// QueueWait returns the time from entering the stream to the start of
// execution proper (arrival → exec-start): dependency wait, queueing on
// busy processors, scheduling overhead and input staging combined.
func (p Placement) QueueWait() float64 { return p.ExecStart - p.Arrival }

// ProcStat aggregates one processor's time accounting over a run.
type ProcStat struct {
	Proc    platform.ProcID
	ExecMs  float64 // time spent executing kernels
	XferMs  float64 // time spent receiving input data
	IdleMs  float64 // Makespan - ExecMs - XferMs
	Kernels int     // kernels executed
}

// LambdaStats aggregates λ delays per the thesis (§3.2 metrics 6–8).
type LambdaStats struct {
	TotalMs float64
	// Count is N: the number of kernels that experienced a non-zero delay.
	Count int
	AvgMs float64 // TotalMs / Count (0 if Count == 0), Eq. 11
	StdMs float64 // population stddev over the non-zero delays, Eq. 12
}

// Result is everything a finished simulation reports.
type Result struct {
	Policy     string
	MakespanMs float64
	Placements []Placement // indexed by kernel ID
	ProcStats  []ProcStat  // indexed by processor ID
	Lambda     LambdaStats

	// starts lists the kernels in the order the engine started them, which
	// Validate checks occupancy along.
	starts []dfg.KernelID
}

// eventKind distinguishes the engine's event types. 32 bits keep the event
// struct at 24 bytes — the heap holds one event per in-flight kernel, and
// paced million-kernel streams buffer one arrival event per kernel.
type eventKind int32

const (
	evFinish  eventKind = iota // a kernel completed execution
	evArrival                  // a kernel arrived in the stream
)

// event is one scheduled occurrence.
type event struct {
	at     float64
	kind   eventKind
	kernel dfg.KernelID
	proc   platform.ProcID // evFinish only
}

// before orders events: by time, completions before arrivals at ties, then
// by kernel ID for full determinism. Kernels released at one instant enter
// the ready log in this order of the events that released them. The time
// comparison is a three-way split rather than a != test so ties fall
// through to the tie-breakers without a floating-point equality.
func (a event) before(b event) bool {
	if a.at < b.at {
		return true
	}
	if b.at < a.at {
		return false
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.kernel < b.kernel
}

// pushEvent adds an event to the engine's min-heap. The heap is slice-based
// (internal/heaps rather than container/heap) so pushes and pops never box
// events into interfaces — this keeps the event loop allocation-free once
// the backing array has grown to its high-water mark.
//
//apt:hotpath
func (e *engine) pushEvent(ev event) {
	e.events = append(e.events, ev)
	heaps.Up(e.events, len(e.events)-1, event.before)
}

// popEvent removes and returns the earliest event. Callers must check
// len(e.events) > 0 first.
//
//apt:hotpath
func (e *engine) popEvent() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	e.events = h[:n]
	heaps.Down(e.events, 0, event.before)
	return top
}

// procQueue is one processor's FIFO of committed-but-not-started kernels.
// Dequeuing advances head instead of reslicing so the backing array is
// reusable across runs.
type procQueue struct {
	items []dfg.KernelID
	head  int
}

func (q *procQueue) len() int            { return len(q.items) - q.head }
func (q *procQueue) peek() dfg.KernelID  { return q.items[q.head] }
func (q *procQueue) push(k dfg.KernelID) { q.items = append(q.items, k) }

func (q *procQueue) pop() {
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
}

func (q *procQueue) reset() {
	q.items = q.items[:0]
	q.head = 0
}

// State is the read-only view a policy receives in Select.
type State struct{ e *engine }

// Now returns the current simulation time in ms.
func (s *State) Now() float64 { return s.e.now }

// Graph returns the workload graph.
func (s *State) Graph() *dfg.Graph { return s.e.costs.g }

// System returns the platform.
func (s *State) System() *platform.System { return s.e.costs.sys }

// AppendReady appends the kernels whose dependencies have completed and
// that have not been assigned yet to buf, in first-come-first-serve order:
// the order of the ready log (ReadyLog) with assigned kernels left out.
// Passing buf[:0] of a buffer retained across Select calls makes the query
// allocation-free.
//
// It refilters the engine's view, AppendReady's previous answer extended
// by the log entries added since, so a call costs in proportion to the
// ready set, not to the log.
func (s *State) AppendReady(buf []dfg.KernelID) []dfg.KernelID {
	e := s.e
	view := append(e.view, e.readyLog[e.viewed:]...)
	e.view, e.viewed = view[:0], len(e.readyLog)
	for _, k := range view {
		if e.procOf[k] < 0 {
			e.view = append(e.view, k)
		}
	}
	return append(buf, e.view...)
}

// ReadyLog returns every kernel that has become ready in this run while
// unassigned, in the order it did. The kernels ready when the run starts
// come first, in kernel ID (stream) order. Every later one is released by
// an event, a predecessor's completion or its own arrival, and events run
// by time, then completions before arrivals, then by the completing or
// arriving kernel's ID; one completion releases its successors in
// ascending ID. Kernels assigned since stay in place. The log only grows
// within a run. It aliases engine state, so callers must only read it,
// and only until Select returns — the same contract as Costs.ExecRow.
func (s *State) ReadyLog() []dfg.KernelID { return s.e.readyLog }

// Available reports whether processor p is idle: executing no kernel and no
// transfer, with an empty queue (the paper's set A).
func (s *State) Available(p platform.ProcID) bool {
	return s.e.running[p] < 0 && s.e.queues[p].len() == 0
}

// AppendAvailableProcs appends the available processors in ID order to buf
// and returns the extended slice.
func (s *State) AppendAvailableProcs(buf []platform.ProcID) []platform.ProcID {
	for p := range s.e.running {
		if s.Available(platform.ProcID(p)) {
			buf = append(buf, platform.ProcID(p))
		}
	}
	return buf
}

// BusyUntil returns the time the processor's current work (running kernel
// plus queued kernels, by current estimates) will drain. For an idle
// processor it returns Now. Queued-but-blocked kernels make this a lower
// bound.
func (s *State) BusyUntil(p platform.ProcID) float64 {
	t := s.e.now
	if k := s.e.running[p]; k >= 0 && s.e.placements[k].Finish > t {
		t = s.e.placements[k].Finish
	}
	q := &s.e.queues[p]
	for _, k := range q.items[q.head:] {
		t += s.e.costs.Exec(k, p)
	}
	return t
}

// QueueLen returns the number of committed-but-not-started kernels on p.
func (s *State) QueueLen(p platform.ProcID) int { return s.e.queues[p].len() }

// ProcOf returns the processor a kernel was committed to and whether it has
// been committed at all. Needed to price transfers from finished
// predecessors.
func (s *State) ProcOf(k dfg.KernelID) (platform.ProcID, bool) {
	p := s.e.procOf[k]
	return p, p >= 0
}

// ExecWindow is how many of a processor's most recent completions
// RecentExecAvg averages: the k of the AG policy's Eq. 2.
const ExecWindow = 10

// RecentExecAvg returns the mean execution time of the last ExecWindow
// kernels that completed on processor p (the τᵍₖ of the AG policy, Eq. 2),
// summed oldest first. If fewer have completed it averages what exists;
// with no completion it returns 0.
func (s *State) RecentExecAvg(p platform.ProcID) float64 {
	w := &s.e.recent[p]
	if w.n == 0 {
		return 0
	}
	var sum float64
	for i, at := 0, w.next-w.n+ExecWindow; i < w.n; i++ {
		sum += w.obs[(at+i)%ExecWindow]
	}
	return sum / float64(w.n)
}

// execWindow holds one processor's last ExecWindow execution times: a ring
// whose next slot is the oldest entry once all n = ExecWindow are filled.
type execWindow struct {
	obs  [ExecWindow]float64
	n    int // entries held, at most ExecWindow
	next int // slot the next completion overwrites
}

// add records one completion's execution time, dropping the oldest once
// the window is full.
//
//apt:hotpath
func (w *execWindow) add(v float64) {
	w.obs[w.next] = v
	if w.next++; w.next == ExecWindow {
		w.next = 0
	}
	if w.n < ExecWindow {
		w.n++
	}
}

// engine is the mutable simulation state. A Runner reuses one engine (and
// its buffers) across runs; only state that escapes into the Result
// (placements, proc stats) is allocated fresh per run.
type engine struct {
	costs  *Costs // what the policy sees (estimates)
	actual *Costs // what execution takes (reality)
	pol    Policy
	opt    Options

	now float64
	// readyLog appends every unassigned kernel as it becomes ready and is
	// never trimmed within a run (State.ReadyLog).
	readyLog []dfg.KernelID
	// view is AppendReady's last answer, taken when the log was viewed
	// entries long; only runs whose policy calls AppendReady grow it.
	view   []dfg.KernelID
	viewed int
	// predsLeft counts each kernel's unfinished predecessors, plus one
	// until a paced kernel arrives; the kernel is ready at zero.
	predsLeft []int32
	procOf    []platform.ProcID // -1 until committed
	queues    []procQueue
	running   []dfg.KernelID // -1 when idle
	recent    []execWindow   // per processor, for RecentExecAvg

	placements []Placement // escapes into Result: fresh per run
	// starts appends each kernel as it starts; it escapes into the Result
	// too, so each run gets a fresh one.
	starts []dfg.KernelID
	// wake has one bit per processor whose queue head may have become
	// startable since startQueued last looked: set when a kernel is
	// committed to it, when it finishes a kernel, and when a kernel
	// committed to it turns ready. startQueued visits and clears only these.
	wake      []uint64
	events    []event // min-heap ordered by event.before
	lambdas   []float64
	nFinished int

	// The arenas slab-allocate the escaping placement and start-log
	// blocks; see slab.go.
	placeArena arena[Placement]
	startArena arena[dfg.KernelID]

	// placeFn resolves a predecessor's processor for transfer pricing. It is
	// built once per engine (not per start call) so the hot path does not
	// allocate a closure per kernel launch.
	placeFn func(dfg.KernelID) platform.ProcID
}

// readyLen counts the ready, unassigned kernels, for the deadlock error.
func (e *engine) readyLen() int {
	n := 0
	for _, k := range e.readyLog {
		if e.procOf[k] < 0 {
			n++
		}
	}
	return n
}

// grow returns s resized to n elements, reusing its backing array when
// possible. Contents are unspecified; callers must reinitialise.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Runner executes simulations while reusing the engine's internal buffers
// across runs — the event heap, ready log, per-processor queues and all
// per-kernel bookkeeping arrays survive between calls, so a warm Runner
// allocates only what escapes into each Result. A Runner is NOT safe for
// concurrent use; RunBatch gives every worker its own.
type Runner struct {
	e engine
}

// NewRunner returns an empty Runner; buffers grow to the high-water mark of
// the runs it executes.
func NewRunner() *Runner { return &Runner{} }

// Run simulates graph execution under the policy and returns the metrics.
// The cost oracle must have been prepared for the same graph the policy
// will schedule. Equivalent to the package-level Run but reuses state.
func (r *Runner) Run(c *Costs, pol Policy, opt Options) (*Result, error) {
	if c == nil || pol == nil {
		return nil, fmt.Errorf("sim: Run requires costs and a policy")
	}
	if opt.SchedOverheadMs < 0 {
		return nil, fmt.Errorf("sim: negative SchedOverheadMs")
	}
	if len(opt.ArrivalTimes) != 0 && len(opt.ArrivalTimes) != c.g.NumKernels() {
		return nil, fmt.Errorf("sim: %d arrival times for %d kernels", len(opt.ArrivalTimes), c.g.NumKernels())
	}
	for i, at := range opt.ArrivalTimes {
		if at < 0 {
			return nil, fmt.Errorf("sim: kernel %d has negative arrival time %v", i, at)
		}
		if math.IsNaN(at) || math.IsInf(at, 0) {
			return nil, fmt.Errorf("sim: kernel %d has non-finite arrival time %v", i, at)
		}
	}
	actual := opt.ActualCosts
	if actual == nil {
		actual = c
	}
	if actual.Graph() != c.Graph() {
		return nil, fmt.Errorf("sim: ActualCosts prepared for a different graph")
	}
	if actual.System().NumProcs() != c.System().NumProcs() {
		return nil, fmt.Errorf("sim: ActualCosts prepared for a different system")
	}
	if err := pol.Prepare(c); err != nil {
		return nil, fmt.Errorf("sim: policy %s prepare: %w", pol.Name(), err)
	}
	e := &r.e
	e.reset(c, actual, pol, opt)
	g := c.g
	n := g.NumKernels()
	for id := 0; id < n; id++ {
		e.predsLeft[id] = int32(g.InDegree(dfg.KernelID(id)))
		arrival := 0.0
		if len(opt.ArrivalTimes) > 0 {
			arrival = opt.ArrivalTimes[id]
		}
		if arrival > 0 {
			e.placements[id].Arrival = arrival
			e.placements[id].Ready = arrival // provisional; finalised on readiness
			e.predsLeft[id]++                // the arrival event removes it
			e.pushEvent(event{at: arrival, kind: evArrival, kernel: dfg.KernelID(id)})
		} else if e.predsLeft[id] == 0 {
			e.readyLog = append(e.readyLog, dfg.KernelID(id))
		}
	}
	st := &State{e: e}

	for e.nFinished < n {
		e.invokePolicy(st)
		if err := e.startQueued(); err != nil {
			return nil, err
		}
		if len(e.events) == 0 {
			return nil, fmt.Errorf("sim: policy %s deadlocked at t=%v with %d/%d kernels finished (%d ready)",
				pol.Name(), e.now, e.nFinished, n, e.readyLen())
		}
		ev := e.popEvent()
		if ev.at < e.now {
			return nil, fmt.Errorf("sim: time went backwards: %v -> %v", e.now, ev.at)
		}
		e.now = ev.at
		switch ev.kind {
		case evFinish:
			e.complete(ev)
		case evArrival:
			e.unblock(ev.kernel)
		}
	}
	return e.result(), nil
}

// reset re-dimensions the engine for a run, reusing buffers from previous
// runs where capacities allow.
func (e *engine) reset(c, actual *Costs, pol Policy, opt Options) {
	n := c.g.NumKernels()
	np := c.sys.NumProcs()
	e.costs = c
	e.actual = actual
	e.pol = pol
	e.opt = opt
	e.now = 0
	e.nFinished = 0

	e.readyLog = grow(e.readyLog, n)[:0] // a kernel becomes ready at most once
	e.view, e.viewed = e.view[:0], 0
	e.events = e.events[:0]
	e.lambdas = e.lambdas[:0]

	e.predsLeft = grow(e.predsLeft, n)
	e.procOf = grow(e.procOf, n)
	for i := 0; i < n; i++ {
		e.procOf[i] = -1
	}

	e.wake = grow(e.wake, (np+63)/64)
	clear(e.wake)
	e.queues = grow(e.queues, np)
	e.running = grow(e.running, np)
	e.recent = grow(e.recent, np)
	for p := 0; p < np; p++ {
		e.queues[p].reset()
		e.running[p] = -1
		e.recent[p] = execWindow{}
	}

	if e.placeFn == nil {
		e.placeFn = func(pred dfg.KernelID) platform.ProcID { return e.procOf[pred] }
	}

	// Placements and the start log escape into the Result, so each run gets
	// blocks no other run will ever touch — slab-carved rather than
	// allocated, so repeated small runs share one arena allocation of each
	// (see slab.go). A kernel starts once, so the log never outgrows n.
	e.placements = e.placeArena.alloc(n)
	e.starts = e.startArena.alloc(n)[:0]
}

// runnerPool recycles Runners across package-level Run calls. Results never
// alias pooled state — placements are slab-carved blocks handed out exactly
// once (see slab.go) and everything else escaping is freshly built — so
// pooling only changes how often the engine's internal buffers are rebuilt,
// never what a run returns.
var runnerPool = sync.Pool{New: func() any { return NewRunner() }}

// Run simulates graph execution under the policy and returns the metrics.
// The cost oracle must have been prepared for the same graph the policy
// will schedule. Run draws a warm Runner from an internal pool, so repeated
// calls cost little more than Runner reuse; callers wanting explicit
// control (or single-goroutine cheapness) can still hold their own Runner,
// and RunBatch gives every worker one.
func Run(c *Costs, pol Policy, opt Options) (*Result, error) {
	r := runnerPool.Get().(*Runner)
	res, err := r.Run(c, pol, opt)
	r.release()
	runnerPool.Put(r)
	return res, err
}

// release drops the engine's references to caller-owned inputs (costs,
// policy, options) so a pooled Runner never pins a graph or cost table
// alive. Internal buffers are deliberately kept: they are the point of
// pooling.
func (r *Runner) release() {
	e := &r.e
	e.costs, e.actual, e.pol = nil, nil, nil
	e.opt = Options{}
}

// unblock removes one of kernel k's unmet conditions: a predecessor's
// completion or its own arrival. After the last the kernel is ready: a
// committed kernel wakes its processor, which may be waiting on it at its
// queue head; any other joins the ready log.
//
//apt:hotpath
func (e *engine) unblock(k dfg.KernelID) {
	e.predsLeft[k]--
	if e.predsLeft[k] > 0 {
		return
	}
	e.placements[k].Ready = e.now
	if p := e.procOf[k]; p >= 0 {
		e.wakeProc(p)
	} else {
		e.readyLog = append(e.readyLog, k)
	}
}

// wakeProc marks processor p for startQueued's next look.
//
//apt:hotpath
func (e *engine) wakeProc(p platform.ProcID) { e.wake[p>>6] |= 1 << (p & 63) }

//apt:hotpath
func (e *engine) invokePolicy(st *State) {
	for _, a := range e.pol.Select(st) {
		e.commit(a)
	}
}

// commit validates and enqueues an assignment. Validation failures panic
// via the cold badAssignment helper so the hot path carries no fmt calls.
//
//apt:hotpath
func (e *engine) commit(a Assignment) {
	n := e.costs.g.NumKernels()
	if a.Kernel < 0 || int(a.Kernel) >= n ||
		a.Proc < 0 || int(a.Proc) >= e.costs.sys.NumProcs() ||
		e.procOf[a.Kernel] >= 0 {
		e.badAssignment(a)
	}
	e.procOf[a.Kernel] = a.Proc
	e.placements[a.Kernel].Kernel = a.Kernel
	e.placements[a.Kernel].Proc = a.Proc
	e.placements[a.Kernel].Assign = e.now
	_, best := e.actual.BestProc(a.Kernel)
	e.placements[a.Kernel].BestExecMs = best
	e.queues[a.Proc].push(a.Kernel)
	e.wakeProc(a.Proc)
}

// badAssignment re-derives why commit rejected the assignment and panics
// with the diagnostic. Kept out of commit so the //apt:hotpath discipline
// (no fmt, no allocation) holds on the accepting path.
//
//apt:coldpath
func (e *engine) badAssignment(a Assignment) {
	if a.Kernel < 0 || int(a.Kernel) >= e.costs.g.NumKernels() {
		panic(fmt.Sprintf("sim: policy %s assigned unknown kernel %d", e.pol.Name(), a.Kernel))
	}
	if a.Proc < 0 || int(a.Proc) >= e.costs.sys.NumProcs() {
		panic(fmt.Sprintf("sim: policy %s assigned kernel %d to unknown processor %d", e.pol.Name(), a.Kernel, a.Proc))
	}
	panic(fmt.Sprintf("sim: policy %s double-assigned kernel %d", e.pol.Name(), a.Kernel))
}

// startQueued starts the head of every idle processor's queue whose
// dependencies have completed. Only a commit, a completion or a committed
// kernel turning ready changes whether a processor can start, and each
// wakes that processor, so visiting the woken ones in ascending ID starts
// what a scan of every processor would, in the same order.
//
//apt:hotpath
func (e *engine) startQueued() error {
	for w, word := range e.wake {
		e.wake[w] = 0 // start wakes no processor
		for ; word != 0; word &= word - 1 {
			p := w<<6 | bits.TrailingZeros64(word)
			if e.running[p] >= 0 || e.queues[p].len() == 0 {
				continue
			}
			k := e.queues[p].peek()
			if e.predsLeft[k] > 0 {
				continue // head blocked on dependencies or not yet arrived
			}
			e.queues[p].pop()
			if err := e.start(k, platform.ProcID(p)); err != nil {
				return err
			}
		}
	}
	return nil
}

//apt:hotpath
func (e *engine) start(k dfg.KernelID, p platform.ProcID) error {
	pl := &e.placements[k]
	pl.TransferStart = e.now + e.opt.SchedOverheadMs
	if e.opt.Degrade == nil {
		// Nominal actual-time path: durations come straight from the
		// actual cost oracle (== the estimates unless ActualCosts split
		// them).
		pl.ExecStart = pl.TransferStart + e.actual.TransferIn(k, p, e.placeFn)
		pl.Finish = pl.ExecStart + e.actual.Exec(k, p)
	} else if err := e.startDegraded(k, p, pl); err != nil {
		return err
	}
	e.running[p] = k
	e.starts = append(e.starts, k)
	e.pushEvent(event{at: pl.Finish, kernel: k, proc: p})
	return nil
}

// startDegraded computes the degraded-path timings: the nominal durations
// integrated over the time-varying speeds of the degradation schedule.
// Split from start so the nominal hot path stays free of error formatting;
// degraded mode integrates piecewise speed schedules and is allowed to
// allocate, so the hotpath closure stops here.
//
//apt:coldpath
func (e *engine) startDegraded(k dfg.KernelID, p platform.ProcID, pl *Placement) error {
	execStart, err := e.transferFinish(k, p, pl.TransferStart)
	if err != nil {
		return fmt.Errorf("sim: kernel %d transfer onto proc %d: %w", k, p, err)
	}
	pl.ExecStart = execStart
	finish, err := elapseExec(e.opt.Degrade, p, e.actual.Exec(k, p), execStart)
	if err != nil {
		return fmt.Errorf("sim: kernel %d on proc %d: %w", k, p, err)
	}
	pl.Finish = finish
	return nil
}

//apt:hotpath
func (e *engine) complete(ev event) {
	k, p := ev.kernel, ev.proc
	e.nFinished++
	e.running[p] = -1
	e.wakeProc(p)
	// The AG policy's execution window holds observed durations: under
	// degradation that is the stretched wall time, not the nominal cost
	// (the nominal path keeps the exact oracle value to avoid float
	// round-trip noise).
	obs := e.actual.Exec(k, p)
	if e.opt.Degrade != nil {
		obs = e.placements[k].Finish - e.placements[k].ExecStart
	}
	e.recent[p].add(obs)
	for _, s := range e.costs.g.Succs(k) {
		e.unblock(s)
	}
}

func (e *engine) result() *Result {
	np := e.costs.sys.NumProcs()
	res := &Result{
		Policy:     e.pol.Name(),
		Placements: e.placements,
		ProcStats:  make([]ProcStat, np),
	}
	for p := 0; p < np; p++ {
		res.ProcStats[p].Proc = platform.ProcID(p)
	}
	var makespan float64
	lambdas := e.lambdas[:0]
	for i := range e.placements {
		pl := &e.placements[i]
		if pl.Finish > makespan {
			makespan = pl.Finish
		}
		st := &res.ProcStats[pl.Proc]
		st.ExecMs += pl.Finish - pl.ExecStart
		st.XferMs += pl.ExecStart - pl.TransferStart
		st.Kernels++
		if l := pl.Lambda(); l > 0 {
			lambdas = append(lambdas, l)
		}
	}
	e.lambdas = lambdas
	res.starts, e.starts = e.starts, nil
	res.MakespanMs = makespan
	for p := range res.ProcStats {
		st := &res.ProcStats[p]
		st.IdleMs = makespan - st.ExecMs - st.XferMs
		if st.IdleMs < 0 && st.IdleMs > -1e-9 {
			st.IdleMs = 0 // clamp float noise
		}
	}
	res.Lambda = LambdaStats{
		TotalMs: stats.Sum(lambdas),
		Count:   len(lambdas),
		StdMs:   stats.StdDev(lambdas),
	}
	if res.Lambda.Count > 0 {
		res.Lambda.AvgMs = res.Lambda.TotalMs / float64(res.Lambda.Count)
	}
	return res
}

// Validate re-checks the structural invariants of a finished simulation:
// every kernel placed exactly once on a real processor; per-processor
// occupancy intervals (transfer start to finish) never overlap; no kernel
// starts its transfer before being assigned nor executes before all its
// dependencies finish; λ is non-negative; and the reported makespan equals
// the latest finish. It exists for tests and for downstream users embedding
// custom policies. Occupancy is checked along the order the engine started
// the kernels in, which Run records in the Result, so only a Result
// returned by Run passes. It walks the placements, then the start log, on
// the caller's goroutine and returns the first error it finds.
func (r *Result) Validate(g *dfg.Graph, sys *platform.System) error {
	if err := r.checkLifecycles(g, sys); err != nil || len(r.Placements) == 0 {
		return err
	}
	return r.checkOccupancy(sys.NumProcs())
}

// checkLifecycles checks every placement on its own, in kernel order, and
// the makespan against the latest finish.
func (r *Result) checkLifecycles(g *dfg.Graph, sys *platform.System) error {
	n := g.NumKernels()
	if len(r.Placements) != n {
		return fmt.Errorf("sim: %d placements for %d kernels", len(r.Placements), n)
	}
	if n == 0 {
		return nil
	}
	np := sys.NumProcs()
	var maxFinish float64
	for i := range r.Placements {
		pl := &r.Placements[i]
		if int(pl.Kernel) != i {
			return fmt.Errorf("sim: placement %d records kernel %d", i, pl.Kernel)
		}
		if pl.Proc < 0 || int(pl.Proc) >= np {
			return fmt.Errorf("sim: kernel %d placed on unknown processor %d", i, pl.Proc)
		}
		// Note: pl.Assign may precede pl.Ready — static policies commit
		// kernels before their dependencies finish; that is legal.
		if pl.TransferStart < pl.Assign-eps(pl.Assign) {
			return fmt.Errorf("sim: kernel %d transfer (%v) before assignment (%v)", i, pl.TransferStart, pl.Assign)
		}
		if pl.ExecStart < pl.TransferStart-eps(pl.TransferStart) || pl.Finish < pl.ExecStart-eps(pl.ExecStart) {
			return fmt.Errorf("sim: kernel %d has non-monotonic lifecycle %+v", i, *pl)
		}
		if pl.Lambda() < -eps(pl.Finish) {
			return fmt.Errorf("sim: kernel %d has negative λ %v", i, pl.Lambda())
		}
		for _, pred := range g.Preds(pl.Kernel) {
			if r.Placements[pred].Finish > pl.TransferStart+eps(pl.TransferStart) {
				return fmt.Errorf("sim: kernel %d starts transfers at %v before predecessor %d finishes at %v",
					i, pl.TransferStart, pred, r.Placements[pred].Finish)
			}
		}
		if pl.Finish > maxFinish {
			maxFinish = pl.Finish
		}
	}
	if math.Abs(maxFinish-r.MakespanMs) > math.Max(1e-6, eps(maxFinish)) {
		return fmt.Errorf("sim: makespan %v != latest finish %v", r.MakespanMs, maxFinish)
	}
	return nil
}

// eps is the tolerance of a comparison against time at. Tolerances scale
// with the magnitudes involved: at 100k-kernel scale simulated times reach
// 1e7–1e8 ms, where one double-precision ulp already exceeds a fixed 1e-9
// (e.g. λ on the best processor computes (ready+exec)−ready−exec, which
// rounds to ±ulp(finish), not ±1e-9).
func eps(at float64) float64 { return 1e-9 * (1 + math.Abs(at)) }

// checkOccupancy walks the start log once. The log must list every kernel
// exactly once, and along it each processor's next transfer start must not
// precede its previous kernel's finish. With the lifecycle checks (transfer
// start ≤ exec start ≤ finish) that chain orders every processor's
// intervals end to start, so no two of them overlap.
func (r *Result) checkOccupancy(np int) error {
	n := len(r.Placements)
	if len(r.starts) != n {
		return fmt.Errorf("sim: start log lists %d kernels for %d", len(r.starts), n)
	}
	seen := make([]uint64, (n+63)/64)
	last := make([]int32, np) // the kernel last started on each processor, plus one
	for _, k := range r.starts {
		if k < 0 || int(k) >= n {
			return fmt.Errorf("sim: start log lists unknown kernel %d", k)
		}
		if seen[k>>6]&(1<<(k&63)) != 0 {
			return fmt.Errorf("sim: start log lists kernel %d twice", k)
		}
		seen[k>>6] |= 1 << (k & 63)
		cur := &r.Placements[k]
		if j := last[cur.Proc] - 1; j >= 0 {
			prev := &r.Placements[j]
			if cur.TransferStart < prev.Finish-eps(prev.Finish) {
				return fmt.Errorf("sim: processor %d overlap: kernel %d (start %v) before kernel %d finished (%v)",
					cur.Proc, cur.Kernel, cur.TransferStart, prev.Kernel, prev.Finish)
			}
		}
		last[cur.Proc] = int32(k) + 1
	}
	return nil
}
