package online

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrTimeout marks a task attempt that exceeded its execution bound
// (Task.TimeoutMs or Config.DefaultTimeoutMs). The worker abandons the
// attempt, frees the processor and — budget permitting — retries; a task
// whose final attempt times out settles with an error wrapping ErrTimeout.
var ErrTimeout = errors.New("online: task timed out")

// ErrPanicked marks a task attempt whose Run panicked. The worker recovers
// the panic and converts it into a normal failure, so a panicking task can
// never kill a worker goroutine or strand its processor.
var ErrPanicked = errors.New("online: task panicked")

// RetryPolicy controls automatic re-execution of failed task attempts.
// The zero value disables retries (every task gets exactly one attempt).
type RetryPolicy struct {
	// MaxAttempts is the total execution budget per task, including the
	// first attempt. 0 means 1 (no retries); values above 1 enable retry.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it up to MaxBackoff. Defaults to 1ms when retries are
	// enabled.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Defaults to 1s.
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic jitter stream: each delay is
	// drawn from [backoff/2, backoff) by a pure function of (seed, task
	// sequence, attempt), so reruns with the same seed back off
	// identically.
	JitterSeed int64
}

// withDefaults validates the policy and fills in the zero fields.
func (rp RetryPolicy) withDefaults() (RetryPolicy, error) {
	if rp.MaxAttempts == 0 {
		rp.MaxAttempts = 1
	}
	if rp.MaxAttempts < 1 {
		return rp, fmt.Errorf("online: Retry.MaxAttempts must be >= 1, got %d", rp.MaxAttempts)
	}
	if rp.BaseBackoff < 0 || rp.MaxBackoff < 0 {
		return rp, fmt.Errorf("online: Retry backoffs must be >= 0, got base %v max %v", rp.BaseBackoff, rp.MaxBackoff)
	}
	if rp.BaseBackoff == 0 {
		rp.BaseBackoff = time.Millisecond
	}
	if rp.MaxBackoff == 0 {
		rp.MaxBackoff = time.Second
	}
	if rp.MaxBackoff < rp.BaseBackoff {
		return rp, fmt.Errorf("online: Retry.MaxBackoff %v below BaseBackoff %v", rp.MaxBackoff, rp.BaseBackoff)
	}
	return rp, nil
}

// BreakerConfig enables per-processor circuit breakers. A breaker trips
// when a processor accumulates FailureThreshold consecutive failures, or
// when timeouts fill TimeoutRate of its sliding outcome window; a tripped
// (open) breaker withdraws the processor from placement — the sweeper and
// the submit fast path stop considering it, and its queued-up work
// re-places onto the remaining processors at the next sweep. After
// Cooldown the breaker turns half-open: the processor accepts exactly one
// probe task (the busy flag already serialises executions), and that
// probe's outcome either closes the breaker or re-opens it for another
// cooldown.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failed attempts
	// (errors, timeouts or panics) that trips the breaker. Default 5.
	FailureThreshold int
	// TimeoutRate trips the breaker when at least this fraction of a full
	// outcome window timed out, catching processors that hang without ever
	// returning errors. Default 0.5; must be in (0, 1].
	TimeoutRate float64
	// Window is the number of recent attempt outcomes tracked per
	// processor for the timeout-rate test. Default 20.
	Window int
	// Cooldown is the open → half-open delay before the breaker admits a
	// probe task. Default 1s.
	Cooldown time.Duration
}

// withDefaults validates and fills in the zero fields; a nil receiver
// (breakers disabled) passes through.
func (c *BreakerConfig) withDefaults() (*BreakerConfig, error) {
	if c == nil {
		return nil, nil
	}
	out := *c
	if out.FailureThreshold == 0 {
		out.FailureThreshold = 5
	}
	if out.TimeoutRate == 0 {
		out.TimeoutRate = 0.5
	}
	if out.Window == 0 {
		out.Window = 20
	}
	if out.Cooldown == 0 {
		out.Cooldown = time.Second
	}
	switch {
	case out.FailureThreshold < 1:
		return nil, fmt.Errorf("online: Breaker.FailureThreshold must be >= 1, got %d", out.FailureThreshold)
	case out.TimeoutRate <= 0 || out.TimeoutRate > 1:
		return nil, fmt.Errorf("online: Breaker.TimeoutRate must be in (0, 1], got %v", out.TimeoutRate)
	case out.Window < 1:
		return nil, fmt.Errorf("online: Breaker.Window must be >= 1, got %d", out.Window)
	case out.Cooldown < 0:
		return nil, fmt.Errorf("online: Breaker.Cooldown must be >= 0, got %v", out.Cooldown)
	}
	return &out, nil
}

// Breaker states. The placement path never reads these — it consults only
// the processor's atomic healthy flag, which open (and only open) clears.
const (
	bkClosed = iota
	bkOpen
	bkHalfOpen
)

func breakerStateName(state int8) string {
	switch state {
	case bkOpen:
		return "open"
	case bkHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is one processor's circuit-breaker state. It is only touched on
// the completion path (worker goroutine), by the cooldown timer and by
// observability readers — never on the submit hot path.
type breaker struct {
	mu          sync.Mutex
	state       int8
	consec      int    // consecutive failed attempts
	win         []int8 // outcome ring: 0 ok, 1 failure, 2 timeout
	wi, wn      int
	winTimeouts int
	trips       int
	lastNs      int64 // Unix nanoseconds of the last state transition
	timer       *time.Timer
}

// ProcHealth reports one processor's live health, as tracked by its
// circuit breaker.
type ProcHealth struct {
	Proc ProcID `json:"proc"`
	// Healthy mirrors the flag the placement path consults: false exactly
	// while the breaker is open.
	Healthy bool `json:"healthy"`
	// State is "closed", "open" or "half-open"; "disabled" when the
	// scheduler runs without a BreakerConfig.
	State string `json:"state"`
	// ConsecutiveFails counts failed attempts since the last success.
	ConsecutiveFails int `json:"consecutive_fails"`
	// WindowTimeouts of the last WindowSize attempt outcomes timed out.
	WindowTimeouts int `json:"window_timeouts"`
	WindowSize     int `json:"window_size"`
	// Trips counts open transitions since Start (including half-open
	// probes that failed).
	Trips int `json:"trips"`
	// SinceChangeMs is the time since the last breaker state transition.
	SinceChangeMs float64 `json:"since_change_ms"`
}

// ProcHealth returns every processor's live breaker state, indexed by
// processor.
func (s *Scheduler) ProcHealth() []ProcHealth {
	out := make([]ProcHealth, s.np)
	for p := range s.procs {
		pr := &s.procs[p]
		out[p] = ProcHealth{Proc: ProcID(p), Healthy: pr.healthy.Load(), State: "disabled"}
		if s.brk == nil {
			continue
		}
		b := &pr.brk
		b.mu.Lock()
		out[p].State = breakerStateName(b.state)
		out[p].ConsecutiveFails = b.consec
		out[p].WindowTimeouts = b.winTimeouts
		out[p].WindowSize = b.wn
		out[p].Trips = b.trips
		if b.lastNs != 0 {
			out[p].SinceChangeMs = durMs(time.Since(time.Unix(0, b.lastNs)))
		}
		b.mu.Unlock()
	}
	return out
}

// recordOutcome feeds one attempt outcome into the processor's breaker.
// It runs on the worker goroutine with the busy flag still held, so a trip
// publishes healthy=false before the processor can be claimed again — an
// open breaker never receives a placement.
func (s *Scheduler) recordOutcome(p int, failed, timedOut bool) {
	cfg := s.brk
	if cfg == nil {
		return
	}
	pr := &s.procs[p]
	b := &pr.brk
	b.mu.Lock()
	var code int8
	if timedOut {
		code = 2
	} else if failed {
		code = 1
	}
	if b.wn == len(b.win) {
		if b.win[b.wi] == 2 {
			b.winTimeouts--
		}
	} else {
		b.wn++
	}
	b.win[b.wi] = code
	b.wi = (b.wi + 1) % len(b.win)
	if code == 2 {
		b.winTimeouts++
	}
	if !failed {
		b.consec = 0
		if b.state == bkHalfOpen {
			// Probe succeeded: the processor is back.
			b.state = bkClosed
			b.lastNs = time.Now().UnixNano()
		}
		b.mu.Unlock()
		return
	}
	b.consec++
	trip := false
	switch b.state {
	case bkHalfOpen:
		trip = true // failed probe: re-open for another cooldown
	case bkClosed:
		trip = b.consec >= cfg.FailureThreshold ||
			(b.wn == len(b.win) && float64(b.winTimeouts) >= cfg.TimeoutRate*float64(len(b.win)))
	}
	if trip {
		b.state = bkOpen
		b.trips++
		b.lastNs = time.Now().UnixNano()
		pr.healthy.Store(false)
		s.breakerTrips.Add(1)
		if b.timer != nil {
			b.timer.Stop()
		}
		b.timer = time.AfterFunc(cfg.Cooldown, func() { s.probeReady(p) })
	}
	b.mu.Unlock()
}

// probeReady moves an open breaker to half-open after its cooldown: the
// processor becomes claimable again, and the next task placed on it is the
// probe whose outcome closes or re-opens the breaker (the busy flag
// guarantees at most one task runs on it before that outcome is recorded).
func (s *Scheduler) probeReady(p int) {
	if s.closed.Load() {
		return
	}
	pr := &s.procs[p]
	b := &pr.brk
	b.mu.Lock()
	if b.state != bkOpen {
		b.mu.Unlock()
		return
	}
	b.state = bkHalfOpen
	b.lastNs = time.Now().UnixNano()
	pr.healthy.Store(true)
	b.mu.Unlock()
	// Queued work that was waiting out the open breaker can probe now.
	s.wake()
}

// stopBreakerTimers cancels pending cooldown timers at shutdown. A timer
// that already fired is harmless: probeReady checks closed first.
func (s *Scheduler) stopBreakerTimers() {
	if s.brk == nil {
		return
	}
	for p := range s.procs {
		b := &s.procs[p].brk
		b.mu.Lock()
		if b.timer != nil {
			b.timer.Stop()
			b.timer = nil
		}
		b.mu.Unlock()
	}
}

// restoreBreaker re-arms one processor's breaker from snapshot state: an
// open breaker starts a fresh cooldown (the outage may have outlived the
// restart), a half-open one waits for its probe.
func (s *Scheduler) restoreBreaker(p int, st SnapshotBreaker) {
	if s.brk == nil {
		return
	}
	pr := &s.procs[p]
	b := &pr.brk
	b.mu.Lock()
	b.consec = st.ConsecutiveFails
	b.trips = st.Trips
	b.lastNs = time.Now().UnixNano()
	switch st.State {
	case "open":
		b.state = bkOpen
		pr.healthy.Store(false)
		if b.timer != nil {
			b.timer.Stop()
		}
		b.timer = time.AfterFunc(s.brk.Cooldown, func() { s.probeReady(p) })
	case "half-open":
		b.state = bkHalfOpen
	default: // "closed"; Restore refuses any other state
		b.state = bkClosed
	}
	b.mu.Unlock()
}

// execute runs one attempt of a task on processor p, enforcing the task's
// timeout and converting panics into failures. With no timeout the Run is
// called synchronously; with one, it runs on a helper goroutine so a Run
// that ignores its context can be abandoned — the worker moves on and the
// processor is freed while the orphaned call winds down in the background
// (its eventual return value is discarded).
func (s *Scheduler) execute(lt *liveTask, p int) error {
	run := lt.task.Run
	if run == nil {
		return nil
	}
	if lt.timeout <= 0 {
		return runSafe(s.ctx, run, ProcID(p))
	}
	tctx, cancel := context.WithTimeout(s.ctx, lt.timeout)
	done := make(chan error, 1)
	go func() { done <- runSafe(tctx, run, ProcID(p)) }()
	var err error
	select {
	case err = <-done:
	case <-tctx.Done():
		select {
		case err = <-done: // finished while racing the timer
		default:
			err = tctx.Err()
		}
	}
	cancel()
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		// Either the abandon path above or a cooperative Run returning its
		// context error: both are this attempt hitting its bound.
		err = fmt.Errorf("%w after %v on processor %d", ErrTimeout, lt.timeout, p)
	}
	return err
}

// runSafe invokes a task's Run, converting a panic into an ErrPanicked
// failure instead of letting it unwind the worker goroutine.
func runSafe(ctx context.Context, run func(context.Context, ProcID) error, p ProcID) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrPanicked, r)
		}
	}()
	return run(ctx, p)
}

// shouldRetry decides whether a failed attempt re-enters placement:
// budget remaining, and the failure is the task's own (a cancellation from
// scheduler shutdown is terminal — retrying it would never converge).
func (s *Scheduler) shouldRetry(attempt int, err error) bool {
	if attempt >= s.retry.MaxAttempts {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, ErrClosed) {
		return false
	}
	return !s.closed.Load()
}

// retryDelay computes the seeded exponential backoff for the retry after
// the attempt-th attempt: base·2^(attempt−1) capped at MaxBackoff, with
// deterministic equal-jitter in [d/2, d) drawn from (JitterSeed, seq,
// attempt).
func (s *Scheduler) retryDelay(attempt int, seq uint64) time.Duration {
	d := s.retry.BaseBackoff
	for i := 1; i < attempt && d < s.retry.MaxBackoff; i++ {
		d *= 2
	}
	if d > s.retry.MaxBackoff {
		d = s.retry.MaxBackoff
	}
	h := splitmix64(uint64(s.retry.JitterSeed)<<1 ^ seq<<8 ^ uint64(attempt))
	frac := float64(h>>11) / float64(uint64(1)<<53)
	half := d / 2
	return half + time.Duration(frac*float64(half))
}

// splitmix64 is the standard 64-bit finaliser used as a stateless seeded
// hash: deterministic, well-mixed, and free of shared state, so concurrent
// draws need no lock and reruns reproduce exactly.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// retryLater schedules a failed attempt's re-entry after its backoff. The
// task is parked in the retry registry (not the admission queue); when the
// timer fires it re-enters placement through the normal sweep path.
func (s *Scheduler) retryLater(lt *liveTask, attempt int) {
	delay := s.retryDelay(attempt, lt.seq)
	s.rt.mu.Lock()
	if s.closed.Load() {
		s.rt.mu.Unlock()
		s.deliver(lt, Result{Task: lt.task, Proc: -1, Attempts: attempt, Err: ErrClosed})
		return
	}
	s.rt.m[lt] = time.AfterFunc(delay, func() { s.retryFire(lt) })
	s.rt.mu.Unlock()
}

// retryFire is the backoff timer's callback: whoever removes the registry
// entry (this callback or failRetries at shutdown) owns the task's fate,
// so it settles exactly once.
func (s *Scheduler) retryFire(lt *liveTask) {
	s.rt.mu.Lock()
	if _, ok := s.rt.m[lt]; !ok {
		s.rt.mu.Unlock()
		return // shutdown already failed it
	}
	delete(s.rt.m, lt)
	s.rt.mu.Unlock()
	s.requeue(lt)
}

// requeue re-admits a retrying task. It rides the same inflight gate as
// submitTask, so a concurrent Close cannot strand the task between the
// closed check and the enqueue: either the task reaches the stripes before
// the sweeper's final drain, or it is failed here.
func (s *Scheduler) requeue(lt *liveTask) {
	s.inflight.Add(1)
	if s.closed.Load() {
		s.inflight.Add(-1)
		s.deliver(lt, Result{Task: lt.task, Proc: -1, Attempts: int(lt.attempt.Load()), Err: ErrClosed})
		return
	}
	// Unbounded: the task was admitted (and counted) at first submission;
	// the retained original sequence stamp keeps its FCFS position.
	_ = s.enqueue(lt, false)
	s.inflight.Add(-1)
}

// failRetries settles every task parked in the retry registry at shutdown.
func (s *Scheduler) failRetries() {
	s.rt.mu.Lock()
	lts := make([]*liveTask, 0, len(s.rt.m))
	for lt, tm := range s.rt.m {
		tm.Stop()
		lts = append(lts, lt)
	}
	clear(s.rt.m)
	s.rt.mu.Unlock()
	sort.Slice(lts, func(i, j int) bool { return lts[i].seq < lts[j].seq })
	for _, lt := range lts {
		s.deliver(lt, Result{Task: lt.task, Proc: -1, Attempts: int(lt.attempt.Load()), Err: ErrClosed})
	}
}

// retrySnapshot returns the externally-submitted tasks currently waiting
// out a backoff, in submission order (graph-internal retries are captured
// by their job's frontier instead).
func (s *Scheduler) retrySnapshot() []*liveTask {
	s.rt.mu.Lock()
	lts := make([]*liveTask, 0, len(s.rt.m))
	for lt := range s.rt.m {
		if lt.done != nil {
			lts = append(lts, lt)
		}
	}
	s.rt.mu.Unlock()
	sort.Slice(lts, func(i, j int) bool { return lts[i].seq < lts[j].seq })
	return lts
}
