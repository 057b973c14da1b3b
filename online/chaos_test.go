package online

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseFaultPlan(t *testing.T) {
	fp, err := ParseFaultPlan("flaky:0:0.6, crash:1:0:1500,kind:mm:0.3,lat:2:5,hang:3:100:0", 42)
	if err != nil {
		t.Fatal(err)
	}
	rules := fp.Rules()
	if len(rules) != 5 {
		t.Fatalf("parsed %d rules, want 5", len(rules))
	}
	want := []FaultKind{ProcFlaky, ProcCrash, KindFlaky, ProcLatency, ProcHang}
	for i, k := range want {
		if rules[i].Kind != k {
			t.Errorf("rule %d kind = %v, want %v", i, rules[i].Kind, k)
		}
	}
	if rules[4].EndMs != 0 {
		t.Errorf("open-ended window end = %v, want 0", rules[4].EndMs)
	}
	for _, bad := range []string{"crash:0", "flaky:0:2", "kind::0.5", "lat:0:-1", "bogus:1:2", "crash:0:5:2"} {
		if _, err := ParseFaultPlan(bad, 1); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	if fp, err := ParseFaultPlan("", 1); err != nil || !fp.Empty() {
		t.Errorf("empty spec: plan %v err %v", fp, err)
	}
}

// TestParseFaultPlanIntegerProcessors: processor fields are integers; a
// float such as "crash:1.5:…" would truncate to processor 1.
func TestParseFaultPlanIntegerProcessors(t *testing.T) {
	for _, spec := range []string{"crash:1.5:0:100", "hang:2.0:0:0", "flaky:0.5:0.5", "lat:1e0:5", "crash:4294967296:0:0"} {
		if fp, err := ParseFaultPlan(spec, 1); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted a non-integer processor: %+v", spec, fp.Rules())
		}
	}
}

// TestFaultPlanRefusesRulesThatNeverAct: a window ending at NaN would
// never open, a delay past MaxDelayMs would overflow its time.Duration, so
// lat:0:1e13 would add no latency, and a padded kind prefix matches no task
// name.
func TestFaultPlanRefusesRulesThatNeverAct(t *testing.T) {
	for _, spec := range []string{"crash:0:0:NaN", "hang:1:5:nan", "lat:0:1e13", "kind: mm:0.5", "kind:mm :0.5"} {
		if _, err := ParseFaultPlan(spec, 1); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted a rule that never acts", spec)
		}
	}
	if _, err := ParseFaultPlan("lat:0:9e12", 1); err != nil {
		t.Errorf("a delay a time.Duration holds was refused: %v", err)
	}
}

func TestFaultPlanCrashWindow(t *testing.T) {
	fp, err := ParseFaultPlan("crash:0:0:50", 1)
	if err != nil {
		t.Fatal(err)
	}
	fp.Begin()
	run := fp.Wrap("t", nil)
	if err := run(context.Background(), 0); !errors.Is(err, ErrInjected) {
		t.Errorf("inside window: %v, want ErrInjected", err)
	}
	if err := run(context.Background(), 1); err != nil {
		t.Errorf("other processor affected: %v", err)
	}
	time.Sleep(60 * time.Millisecond)
	if err := run(context.Background(), 0); err != nil {
		t.Errorf("after window: %v", err)
	}
}

func TestFaultPlanDeterministicDraws(t *testing.T) {
	draws := func(seed int64) []bool {
		fp, err := ParseFaultPlan("flaky:0:0.5", seed)
		if err != nil {
			t.Fatal(err)
		}
		run := fp.Wrap("t", nil)
		out := make([]bool, 64)
		for i := range out {
			out[i] = run(context.Background(), 0) != nil
		}
		return out
	}
	a, b, c := draws(7), draws(7), draws(8)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("same seed produced different injection streams")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different seeds produced identical injection streams")
	}
	fails := 0
	for _, f := range a {
		if f {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Errorf("flaky:0.5 injected %d/%d failures — draw stream looks constant", fails, len(a))
	}
}

// TestChaosSoak drives a fault-ridden scheduler hard (run under -race in
// CI): independent tasks and random DAGs meet crashing, hanging, panicking
// and flaky Runs plus an injected fault plan, with retries, timeouts and
// breakers all enabled. Every accepted task must settle exactly once with
// success or a typed terminal error, no worker may be lost, and tripped
// breakers must recover.
func TestChaosSoak(t *testing.T) {
	const (
		procs    = 4
		indep    = 160
		graphs   = 8
		gsize    = 12
		seed     = uint64(0xC0FFEE)
		timeout  = 25.0 // ms per attempt
		attempts = 4    // execution budget per task
	)
	fp, err := ParseFaultPlan("flaky:1:0.3,crash:2:0:150,lat:3:1", 99)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithConfig(Config{
		Procs:            procs,
		Alpha:            8,
		DefaultTimeoutMs: timeout,
		TraceDepth:       64,
		Retry:            RetryPolicy{MaxAttempts: attempts, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, JitterSeed: 1},
		Breaker:          &BreakerConfig{FailureThreshold: 4, TimeoutRate: 0.8, Window: 10, Cooldown: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	fp.Begin()

	// mkRun builds a deterministic misbehaving Run from a per-task seed:
	// most succeed, some fail transiently (within the retry budget), some
	// fail always, some hang past the timeout once, some panic once.
	var hangs sync.WaitGroup
	mkRun := func(taskSeed uint64, name string) (func(context.Context, ProcID) error, string) {
		var calls atomic.Int32
		mode := splitmix64(taskSeed) % 10
		var base func(context.Context, ProcID) error
		var kind string
		switch mode {
		case 0: // fails on its first call, then succeeds
			kind = "transient"
			base = func(context.Context, ProcID) error {
				if calls.Add(1) == 1 {
					return errTransient
				}
				return nil
			}
		case 1: // permanent failure
			kind = "permanent"
			base = func(context.Context, ProcID) error { return errPermanent }
		case 2: // hangs past the timeout on attempt 1, then succeeds
			kind = "hang-once"
			base = func(ctx context.Context, _ ProcID) error {
				if calls.Add(1) == 1 {
					hangs.Add(1)
					defer hangs.Done()
					<-ctx.Done()
					return ctx.Err()
				}
				return nil
			}
		case 3: // panics on attempt 1, then succeeds
			kind = "panic-once"
			base = func(context.Context, ProcID) error {
				if calls.Add(1) == 1 {
					panic("chaos panic")
				}
				return nil
			}
		default: // clean
			kind = "ok"
			base = func(context.Context, ProcID) error { return nil }
		}
		return fp.Wrap(name, base), kind
	}
	est := func(taskSeed uint64) []float64 {
		e := make([]float64, procs)
		for p := range e {
			e[p] = 0.01 + float64(splitmix64(taskSeed^uint64(p+1))%100)/50
		}
		return e
	}

	type settle struct {
		res  Result
		kind string
	}
	var mu sync.Mutex
	settles := make(map[string][]settle)
	record := func(name, kind string, res Result) {
		mu.Lock()
		settles[name] = append(settles[name], settle{res, kind})
		mu.Unlock()
	}

	var wg sync.WaitGroup
	accepted := atomic.Int64{}
	for i := 0; i < indep; i++ {
		name := fmt.Sprintf("ind-%d", i)
		run, kind := mkRun(seed^uint64(i), name)
		h, err := s.SubmitCtx(context.Background(), Task{Name: name, EstMs: est(seed ^ uint64(i)), Run: run})
		if err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		accepted.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			record(name, kind, <-h.Done)
			// A second result would block forever on the cap-1 channel;
			// prove there is none with a non-blocking read.
			select {
			case res2 := <-h.Done:
				t.Errorf("%s settled twice: %+v", name, res2)
			default:
			}
		}()
	}
	kinds := make(map[string]string)
	for g := 0; g < graphs; g++ {
		gts := make([]GraphTask, gsize)
		for i := range gts {
			name := fmt.Sprintf("g%d-n%d", g, i)
			ts := seed ^ uint64(g*1000+i+7)
			run, kind := mkRun(ts, name)
			kinds[name] = kind
			deps := []int(nil)
			// Random DAG: each node depends on up to 2 earlier nodes.
			for d := 0; d < 2 && i > 0; d++ {
				deps = append(deps, int(splitmix64(ts^uint64(d+31))%uint64(i)))
			}
			gts[i] = GraphTask{Task: Task{Name: name, EstMs: est(ts), Run: run}, Deps: deps}
		}
		gh, err := s.SubmitGraph(gts)
		if err != nil {
			t.Fatalf("graph %d: %v", g, err)
		}
		accepted.Add(gsize)
		wg.Add(1)
		go func() {
			defer wg.Done()
			gres := <-gh.Done
			for i, res := range gres.Results {
				record(res.Task.Name, kinds[res.Task.Name], res)
				_ = i
			}
		}()
	}
	wg.Wait()

	// Every accepted task settled exactly once, with a typed error or
	// success.
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for name, ss := range settles {
		total += len(ss)
		if len(ss) != 1 {
			t.Errorf("%s settled %d times", name, len(ss))
			continue
		}
		res, kind := ss[0].res, ss[0].kind
		err := res.Err
		switch {
		case err == nil:
		case errors.Is(err, errPermanent), errors.Is(err, ErrTimeout), errors.Is(err, ErrPanicked),
			errors.Is(err, ErrInjected), errors.Is(err, ErrDependency), errors.Is(err, ErrClosed):
		case errors.Is(err, errTransient) && kind == "transient" && res.Attempts == attempts:
			// Injected faults or timeouts ended every earlier attempt
			// before the body ran, so its one failure came on the last.
		default:
			t.Errorf("%s (%s): untyped terminal error %v", name, kind, err)
		}
		// A hang-once task that settled with an error must have been
		// timed out, not silently swallowed.
		if kind == "hang-once" && err != nil && !errors.Is(err, ErrTimeout) &&
			!errors.Is(err, ErrDependency) && !errors.Is(err, ErrInjected) && !errors.Is(err, ErrClosed) {
			t.Errorf("hang-once %s settled with %v", name, err)
		}
	}
	if int64(total) != accepted.Load() {
		t.Errorf("settled %d results for %d accepted tasks", total, accepted.Load())
	}

	// Quiescence: the scheduler agrees everything settled.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	st := s.Stats()
	if st.Settled != st.Submitted {
		t.Errorf("settled %d != submitted %d", st.Settled, st.Submitted)
	}
	if st.Completed+st.Queued > st.Submitted {
		t.Errorf("impossible counters: %+v", st)
	}

	// Worker liveness: every processor must still execute work. Breakers
	// may be open from the chaos — wait out their cooldowns first (the
	// half-open probe is this canary).
	for p := 0; p < procs; p++ {
		est := make([]float64, procs)
		for q := range est {
			est[q] = 1000
		}
		est[p] = 0.01
		waitFor(t, 10*time.Second, func() bool { return s.ProcHealth()[p].Healthy })
		lt, err := s.prepare(Task{Name: fmt.Sprintf("canary-%d", p), EstMs: est}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.submitTask(lt, true); err != nil {
			t.Fatalf("canary %d: %v", p, err)
		}
		select {
		case res := <-lt.done:
			if res.Err != nil {
				t.Errorf("canary on proc %d failed: %v", p, res.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d lost: canary never ran", p)
		}
	}

	s.Close()
	// Abandoned hung Runs unblock once Close cancels the scheduler
	// context; wait so the race detector sees them exit.
	done := make(chan struct{})
	go func() { hangs.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Error("abandoned hung Runs never unblocked after Close")
	}
}

var (
	errPermanent = errors.New("permanent chaos failure")
	errTransient = errors.New("transient chaos failure")
)

// formatFaultPlan renders rules back into ParseFaultPlan's spec syntax,
// floats in their shortest exact form.
func formatFaultPlan(rules []FaultRule) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	items := make([]string, len(rules))
	for i, r := range rules {
		switch r.Kind {
		case ProcCrash, ProcHang:
			items[i] = fmt.Sprintf("%s:%d:%s:%s", r.Kind, r.Proc, g(r.StartMs), g(r.EndMs))
		case ProcFlaky:
			items[i] = fmt.Sprintf("flaky:%d:%s", r.Proc, g(r.Prob))
		case KindFlaky:
			items[i] = fmt.Sprintf("kind:%s:%s", r.Name, g(r.Prob))
		case ProcLatency:
			items[i] = fmt.Sprintf("lat:%d:%s", r.Proc, g(r.DelayMs))
		}
	}
	return strings.Join(items, ",")
}

// FuzzParseFaultPlan: a chaos spec comes from a command line, so arbitrary
// input must never panic ParseFaultPlan; every accepted spec must give
// rules NewFaultPlan accepts, and rendering them back to a spec must parse
// to the same rules.
func FuzzParseFaultPlan(f *testing.F) {
	for _, spec := range []string{
		"crash:0:0:3000", // CI's serve smoke
		"crash:0:0:1500,flaky:1:0.3,lat:2:5,hang:3:100:0,kind:matmul:0.1", // README
		"flaky:0:0.6,crash:1:0:1500,lat:2:5",                              // aptserve -chaos help
		"crash:1:0:40",                                                    // examples/online-host
		"crash:7:0:0", "crash:1.5:0:100",
		"lat:0:5e9", "crash:0:5e9:0", "flaky:5e9:0.5",
		"crash:0:0:NaN", "flaky:0:NaN", "lat:0:NaN", "kind:mm:NaN", "hang:0:0:Inf",
		"", ",", "lat:0:1,,flaky:1:0.5", " crash:0:0:1 , kind: mm :0.5 ", "kind::0.5", "kind:a:b:0.5",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fp, err := ParseFaultPlan(spec, 1)
		if err != nil {
			return
		}
		rules := fp.Rules()
		if _, err := NewFaultPlan(1, rules); err != nil {
			t.Fatalf("ParseFaultPlan(%q) gave rules NewFaultPlan refuses: %v", spec, err)
		}
		text := formatFaultPlan(rules)
		back, err := ParseFaultPlan(text, 1)
		if err != nil {
			t.Fatalf("ParseFaultPlan(%q), rendered from %q: %v", text, spec, err)
		}
		if !slices.Equal(back.Rules(), rules) {
			t.Fatalf("%q parsed to %+v; rendered as %q it parses to %+v", spec, rules, text, back.Rules())
		}
	})
}
