package online

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func newStartedCfg(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := NewWithConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Close)
	return s
}

// Regression: a panicking Run must not kill the worker goroutine or leave
// its processor stranded in the busy state — the panic becomes an
// ErrPanicked failure and the processor keeps serving tasks.
func TestPanicRecovery(t *testing.T) {
	s := newStarted(t, 1, 4)
	h, err := s.Submit(Task{
		Name:  "boom",
		EstMs: []float64{1},
		Run:   func(context.Context, ProcID) error { panic("kaboom") },
	})
	if err != nil {
		t.Fatal(err)
	}
	res := <-h.Done
	if !errors.Is(res.Err, ErrPanicked) {
		t.Fatalf("want ErrPanicked, got %v", res.Err)
	}
	if !strings.Contains(res.Err.Error(), "kaboom") {
		t.Errorf("panic value lost from error: %v", res.Err)
	}
	// The single processor must still be alive and claimable.
	h2, err := s.Submit(Task{Name: "after", EstMs: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res2 := <-h2.Done:
		if res2.Err != nil {
			t.Fatalf("task after panic failed: %v", res2.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("processor stranded after panic: follow-up task never ran")
	}
	st := s.Stats()
	if st.Panics != 1 {
		t.Errorf("Stats.Panics = %d, want 1", st.Panics)
	}
}

// A Run that ignores its context is abandoned at the timeout: the task
// fails with ErrTimeout and the processor is freed for the next task even
// though the hung call is still blocked.
func TestTimeoutFreesProcessor(t *testing.T) {
	s := newStarted(t, 1, 4)
	hung := make(chan struct{})
	t.Cleanup(func() { close(hung) })
	h, err := s.Submit(Task{
		Name:      "hang",
		EstMs:     []float64{1},
		TimeoutMs: 20,
		Run:       func(context.Context, ProcID) error { <-hung; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	res := <-h.Done
	if !errors.Is(res.Err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", res.Err)
	}
	h2, err := s.Submit(Task{Name: "after", EstMs: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res2 := <-h2.Done:
		if res2.Err != nil {
			t.Fatalf("task after timeout failed: %v", res2.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("processor not freed after timeout")
	}
	if st := s.Stats(); st.Timeouts != 1 {
		t.Errorf("Stats.Timeouts = %d, want 1", st.Timeouts)
	}
}

// Config.DefaultTimeoutMs applies to tasks that leave TimeoutMs zero, and
// a negative per-task TimeoutMs opts out of the default.
func TestDefaultTimeout(t *testing.T) {
	s := newStartedCfg(t, Config{Procs: 2, Alpha: 4, DefaultTimeoutMs: 20})
	block := func(ctx context.Context, _ ProcID) error {
		<-ctx.Done()
		return ctx.Err()
	}
	h, err := s.Submit(Task{Name: "inherit", EstMs: []float64{1, 2}, Run: block})
	if err != nil {
		t.Fatal(err)
	}
	if res := <-h.Done; !errors.Is(res.Err, ErrTimeout) {
		t.Fatalf("default timeout not applied: %v", res.Err)
	}
	done := make(chan struct{})
	h2, err := s.Submit(Task{
		Name: "optout", EstMs: []float64{1, 2}, TimeoutMs: -1,
		Run: func(context.Context, ProcID) error { <-done; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-h2.Done:
		t.Fatalf("opted-out task settled early: %v", res.Err)
	case <-time.After(100 * time.Millisecond):
	}
	close(done)
	if res := <-h2.Done; res.Err != nil {
		t.Fatalf("opted-out task failed: %v", res.Err)
	}
}

// A failed attempt retries, and the retry prefers a different processor
// than the one that just failed.
func TestRetryPrefersDifferentProc(t *testing.T) {
	s := newStartedCfg(t, Config{
		Procs: 2, Alpha: 100,
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	var procs [2]atomic.Int32
	h, err := s.Submit(Task{
		Name: "flappy",
		// Processor 0 is the strong preference; alpha=100 admits 1 too.
		EstMs: []float64{1, 10},
		Run: func(_ context.Context, p ProcID) error {
			procs[p].Add(1)
			if p == 0 {
				return fmt.Errorf("injected failure on best proc")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := <-h.Done
	if res.Err != nil {
		t.Fatalf("retry never succeeded: %v", res.Err)
	}
	if res.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", res.Attempts)
	}
	if res.Proc != 1 {
		t.Errorf("retry ran on proc %d, want the alternative proc 1", res.Proc)
	}
	if got := procs[0].Load(); got != 1 {
		t.Errorf("failed proc executed %d attempts, want 1", got)
	}
	if st := s.Stats(); st.Retries != 1 {
		t.Errorf("Stats.Retries = %d, want 1", st.Retries)
	}
}

// With a single processor the avoid preference must fall back rather than
// strand the retry.
func TestRetryFallsBackToOnlyProc(t *testing.T) {
	s := newStartedCfg(t, Config{
		Procs: 1, Alpha: 4,
		Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	var calls atomic.Int32
	h, err := s.Submit(Task{
		Name:  "once",
		EstMs: []float64{1},
		Run: func(context.Context, ProcID) error {
			if calls.Add(1) == 1 {
				return fmt.Errorf("first attempt fails")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-h.Done:
		if res.Err != nil || res.Attempts != 2 {
			t.Fatalf("res = %+v, want success on attempt 2", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry stranded on single-processor scheduler")
	}
}

// A task that fails every attempt settles once with an error that wraps
// the final attempt's error and reports the exhausted budget.
func TestRetryBudgetExhausted(t *testing.T) {
	s := newStartedCfg(t, Config{
		Procs: 2, Alpha: 4,
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	sentinel := errors.New("always broken")
	var calls atomic.Int32
	h, err := s.Submit(Task{
		Name:  "doomed",
		EstMs: []float64{1, 2},
		Run: func(context.Context, ProcID) error {
			calls.Add(1)
			return sentinel
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := <-h.Done
	if !errors.Is(res.Err, sentinel) {
		t.Fatalf("final error does not wrap the attempt error: %v", res.Err)
	}
	if res.Attempts != 3 || calls.Load() != 3 {
		t.Errorf("attempts = %d (ran %d), want 3", res.Attempts, calls.Load())
	}
	if !strings.Contains(res.Err.Error(), "3 attempts") {
		t.Errorf("error does not report the exhausted budget: %v", res.Err)
	}
	st := s.Stats()
	if st.Retries != 2 || st.Failed != 1 || st.Completed != 1 {
		t.Errorf("stats retries=%d failed=%d completed=%d, want 2/1/1", st.Retries, st.Failed, st.Completed)
	}
}

// In a graph, successors are only doomed after the predecessor exhausts
// its retry budget — a flaky predecessor that eventually succeeds keeps
// the graph alive.
func TestGraphRetriesBeforeDooming(t *testing.T) {
	s := newStartedCfg(t, Config{
		Procs: 2, Alpha: 4,
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	var calls atomic.Int32
	gh, err := s.SubmitGraph([]GraphTask{
		{Task: Task{Name: "flaky-root", EstMs: []float64{1, 2}, Run: func(context.Context, ProcID) error {
			if calls.Add(1) < 3 {
				return fmt.Errorf("transient")
			}
			return nil
		}}},
		{Task: Task{Name: "child", EstMs: []float64{1, 2}}, Deps: []int{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	gres := <-gh.Done
	if gres.Err != nil {
		t.Fatalf("graph failed despite retry budget: %v", gres.Err)
	}
	if gres.Results[0].Attempts != 3 {
		t.Errorf("root attempts = %d, want 3", gres.Results[0].Attempts)
	}
	if gres.Results[1].Err != nil {
		t.Errorf("child doomed despite root success: %v", gres.Results[1].Err)
	}
}

// Exhausting the root's budget dooms the successor with ErrDependency.
func TestGraphDoomsAfterBudget(t *testing.T) {
	s := newStartedCfg(t, Config{
		Procs: 2, Alpha: 4,
		Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	gh, err := s.SubmitGraph([]GraphTask{
		{Task: Task{Name: "root", EstMs: []float64{1, 2}, Run: func(context.Context, ProcID) error {
			return fmt.Errorf("permanent")
		}}},
		{Task: Task{Name: "child", EstMs: []float64{1, 2}}, Deps: []int{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	gres := <-gh.Done
	if gres.Err == nil {
		t.Fatal("graph succeeded despite permanent root failure")
	}
	if gres.Results[0].Attempts != 2 {
		t.Errorf("root attempts = %d, want 2", gres.Results[0].Attempts)
	}
	if !errors.Is(gres.Results[1].Err, ErrDependency) {
		t.Errorf("child error = %v, want ErrDependency", gres.Results[1].Err)
	}
}

// retryDelay is deterministic for a fixed seed, grows exponentially and
// stays within [base/2·2^k, base·2^k) and under MaxBackoff.
func TestRetryDelayDeterministic(t *testing.T) {
	mk := func(seed int64) *Scheduler {
		s, err := NewWithConfig(Config{Procs: 1, Alpha: 4, Retry: RetryPolicy{
			MaxAttempts: 5, BaseBackoff: 4 * time.Millisecond, MaxBackoff: 20 * time.Millisecond, JitterSeed: seed,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(7), mk(7)
	c := mk(8)
	diverged := false
	for attempt := 1; attempt <= 4; attempt++ {
		for seq := uint64(1); seq <= 10; seq++ {
			da := a.retryDelay(attempt, seq)
			if db := b.retryDelay(attempt, seq); da != db {
				t.Fatalf("same seed diverged at attempt %d seq %d: %v vs %v", attempt, seq, da, db)
			}
			if dc := c.retryDelay(attempt, seq); da != dc {
				diverged = true
			}
			base := 4 * time.Millisecond << (attempt - 1)
			if base > 20*time.Millisecond {
				base = 20 * time.Millisecond
			}
			if da < base/2 || da >= base {
				t.Fatalf("delay %v outside [%v, %v) at attempt %d", da, base/2, base, attempt)
			}
		}
	}
	if !diverged {
		t.Error("different seeds produced identical delay streams")
	}
}

// Consecutive failures trip the breaker: the processor is withdrawn from
// placement, /ProcHealth reports it open, and after the cooldown a
// half-open probe closes it again.
func TestBreakerTripAndRecover(t *testing.T) {
	s := newStartedCfg(t, Config{
		Procs: 2, Alpha: 1, // alpha=1: no alternative placements, strict pinning
		Breaker: &BreakerConfig{FailureThreshold: 2, Cooldown: 50 * time.Millisecond},
	})
	var fail atomic.Bool
	fail.Store(true)
	// Pin to proc 0 (alpha=1 means a task never runs elsewhere).
	pinned := Task{Name: "pin0", EstMs: []float64{1, 1000}, Run: func(context.Context, ProcID) error {
		if fail.Load() {
			return fmt.Errorf("broken")
		}
		return nil
	}}
	for i := 0; i < 2; i++ {
		h, err := s.Submit(pinned)
		if err != nil {
			t.Fatal(err)
		}
		if res := <-h.Done; res.Err == nil {
			t.Fatal("expected failure")
		}
	}
	ph := s.ProcHealth()
	if ph[0].State != "open" || ph[0].Healthy {
		t.Fatalf("proc 0 after %d failures: %+v, want open/unhealthy", 2, ph[0])
	}
	if ph[0].Trips != 1 {
		t.Errorf("trips = %d, want 1", ph[0].Trips)
	}
	if ph[1].State != "closed" || !ph[1].Healthy {
		t.Errorf("proc 1 affected: %+v", ph[1])
	}
	if st := s.Stats(); st.BreakerTrips != 1 || st.PerProcHealthy[0] || !st.PerProcHealthy[1] {
		t.Errorf("stats trips=%d healthy=%v", st.BreakerTrips, st.PerProcHealthy)
	}
	// While open, a task pinned to proc 0 must wait (never placed there).
	fail.Store(false)
	h, err := s.Submit(pinned)
	if err != nil {
		t.Fatal(err)
	}
	// After the cooldown the half-open probe runs it and closes the breaker.
	select {
	case res := <-h.Done:
		if res.Err != nil {
			t.Fatalf("probe task failed: %v", res.Err)
		}
		if res.Proc != 0 {
			t.Fatalf("probe ran on proc %d, want 0", res.Proc)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("breaker never recovered")
	}
	waitFor(t, time.Second, func() bool { return s.ProcHealth()[0].State == "closed" })
}

// A failed half-open probe re-opens the breaker for another cooldown.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	s := newStartedCfg(t, Config{
		Procs:   2,
		Alpha:   1,
		Breaker: &BreakerConfig{FailureThreshold: 1, Cooldown: 30 * time.Millisecond},
	})
	fail := func(context.Context, ProcID) error { return fmt.Errorf("still broken") }
	pinned := Task{Name: "pin0", EstMs: []float64{1, 1000}, Run: fail}
	h, _ := s.Submit(pinned)
	<-h.Done
	waitFor(t, time.Second, func() bool { return s.ProcHealth()[0].State == "half-open" })
	h2, _ := s.Submit(pinned) // the probe, which fails
	<-h2.Done
	ph := s.ProcHealth()
	if ph[0].State != "open" {
		t.Fatalf("state after failed probe = %q, want open", ph[0].State)
	}
	if ph[0].Trips != 2 {
		t.Errorf("trips = %d, want 2", ph[0].Trips)
	}
}

// The timeout-rate rule trips the breaker even when consecutive failures
// are interleaved with successes.
func TestBreakerTimeoutRate(t *testing.T) {
	s := newStartedCfg(t, Config{
		Procs: 1, Alpha: 4,
		Breaker: &BreakerConfig{FailureThreshold: 100, TimeoutRate: 0.5, Window: 4, Cooldown: time.Minute},
	})
	hang := Task{Name: "h", EstMs: []float64{1}, TimeoutMs: 5, Run: func(ctx context.Context, _ ProcID) error {
		<-ctx.Done()
		return ctx.Err()
	}}
	ok := Task{Name: "ok", EstMs: []float64{1}}
	// ok, timeout, ok, timeout: 2/4 of the full window timed out.
	for i, task := range []Task{ok, hang, ok, hang} {
		h, err := s.Submit(task)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		<-h.Done
	}
	ph := s.ProcHealth()
	if ph[0].State != "open" {
		t.Fatalf("state = %q want open (window timeouts %d/%d)", ph[0].State, ph[0].WindowTimeouts, ph[0].WindowSize)
	}
}

// Retries parked in the registry are failed with ErrClosed at Close — no
// task is ever lost in the backoff gap.
func TestCloseFailsParkedRetries(t *testing.T) {
	s, err := NewWithConfig(Config{
		Procs: 1, Alpha: 4,
		Retry: RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Hour, MaxBackoff: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	h, err := s.Submit(Task{Name: "r", EstMs: []float64{1}, Run: func(context.Context, ProcID) error {
		return fmt.Errorf("fail into a long backoff")
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first attempt to fail and park.
	waitFor(t, 5*time.Second, func() bool { return s.Stats().Retries == 1 })
	s.Close()
	select {
	case res := <-h.Done:
		if !errors.Is(res.Err, ErrClosed) {
			t.Fatalf("parked retry error = %v, want ErrClosed", res.Err)
		}
		if res.Attempts != 1 {
			t.Errorf("attempts = %d, want 1", res.Attempts)
		}
	default:
		t.Fatal("parked retry not settled by Close")
	}
	if st := s.Stats(); st.Settled != st.Submitted {
		t.Errorf("settled %d != submitted %d after Close", st.Settled, st.Submitted)
	}
}

// A graceful drain (Quiesce, then Close) waits for parked retries to re-run
// and settle organically.
func TestDrainWaitsForRetries(t *testing.T) {
	s, err := NewWithConfig(Config{
		Procs: 1, Alpha: 4,
		Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: 20 * time.Millisecond, MaxBackoff: 40 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	var calls atomic.Int32
	h, err := s.Submit(Task{Name: "r", EstMs: []float64{1}, Run: func(context.Context, ProcID) error {
		if calls.Add(1) == 1 {
			return fmt.Errorf("transient")
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	s.Close()
	res := <-h.Done
	if res.Err != nil || res.Attempts != 2 {
		t.Fatalf("res = %+v, want success on attempt 2", res)
	}
}

// Config validation rejects nonsensical fault-tolerance parameters.
func TestFaultConfigValidation(t *testing.T) {
	bad := []Config{
		{Procs: 1, Alpha: 4, Retry: RetryPolicy{MaxAttempts: -1}},
		{Procs: 1, Alpha: 4, Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Second, MaxBackoff: time.Millisecond}},
		{Procs: 1, Alpha: 4, Breaker: &BreakerConfig{FailureThreshold: -1}},
		{Procs: 1, Alpha: 4, Breaker: &BreakerConfig{TimeoutRate: 1.5}},
		{Procs: 1, Alpha: 4, Breaker: &BreakerConfig{Window: -3}},
	}
	for i, cfg := range bad {
		if _, err := NewWithConfig(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	s := newStarted(t, 1, 4)
	if _, err := s.Submit(Task{EstMs: []float64{1}, TimeoutMs: -2}); err != nil {
		t.Errorf("negative TimeoutMs (explicit opt-out) rejected: %v", err)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
