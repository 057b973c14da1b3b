package online

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func newStarted(t *testing.T, np int, alpha float64) *Scheduler {
	t.Helper()
	s, err := New(np, alpha)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Close)
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Error("zero processors accepted")
	}
	if _, err := New(3, 0.5); err == nil {
		t.Error("alpha < 1 accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newStarted(t, 3, 4)
	if _, err := s.Submit(Task{EstMs: []float64{1, 2}}); err == nil {
		t.Error("wrong estimate count accepted")
	}
	if _, err := s.Submit(Task{EstMs: []float64{1, 0, 2}}); err == nil {
		t.Error("non-positive estimate accepted")
	}
	if _, err := s.Submit(Task{EstMs: []float64{1, 2, 3}, XferMs: []float64{1}}); err == nil {
		t.Error("wrong transfer count accepted")
	}
}

// TestSubmitRejectsNonFiniteInputs: every estimate must be finite and
// positive, every transfer finite and non-negative and TimeoutMs finite.
// Each refusal is one *EstimateError naming the task, the field, the
// processor and the value, through Submit and through SubmitGraph, and
// its message is the one the scheduler has always printed.
func TestSubmitRejectsNonFiniteInputs(t *testing.T) {
	s := newStarted(t, 3, 4)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name      string
		est, xfer []float64
		timeout   float64
		want      EstimateError
		msg       string
	}{
		{"est+inf", []float64{1, inf, 2}, nil, 0, EstimateError{"est+inf", "EstMs", 1, inf},
			`online: task "est+inf" has invalid estimate +Inf on processor 1 (want finite and > 0)`},
		{"est-inf", []float64{1, 2, -inf}, nil, 0, EstimateError{"est-inf", "EstMs", 2, -inf},
			`online: task "est-inf" has invalid estimate -Inf on processor 2 (want finite and > 0)`},
		{"est-nan", []float64{nan, 1, 2}, nil, 0, EstimateError{"est-nan", "EstMs", 0, nan},
			`online: task "est-nan" has invalid estimate NaN on processor 0 (want finite and > 0)`},
		{"est-zero", []float64{1, 0, 2}, nil, 0, EstimateError{"est-zero", "EstMs", 1, 0},
			`online: task "est-zero" has invalid estimate 0 on processor 1 (want finite and > 0)`},
		{"est-negative", []float64{1, 2, -3}, nil, 0, EstimateError{"est-negative", "EstMs", 2, -3},
			`online: task "est-negative" has invalid estimate -3 on processor 2 (want finite and > 0)`},
		{"xfer-nan", []float64{1, 2, 3}, []float64{0, nan, 0}, 0, EstimateError{"xfer-nan", "XferMs", 1, nan},
			`online: task "xfer-nan" has invalid transfer estimate NaN on processor 1 (want finite and >= 0)`},
		{"xfer+inf", []float64{1, 2, 3}, []float64{0, 0, inf}, 0, EstimateError{"xfer+inf", "XferMs", 2, inf},
			`online: task "xfer+inf" has invalid transfer estimate +Inf on processor 2 (want finite and >= 0)`},
		{"xfer-inf", []float64{1, 2, 3}, []float64{-inf, 0, 0}, 0, EstimateError{"xfer-inf", "XferMs", 0, -inf},
			`online: task "xfer-inf" has invalid transfer estimate -Inf on processor 0 (want finite and >= 0)`},
		{"xfer-negative", []float64{1, 2, 3}, []float64{0, -0.5, 0}, 0, EstimateError{"xfer-negative", "XferMs", 1, -0.5},
			`online: task "xfer-negative" has invalid transfer estimate -0.5 on processor 1 (want finite and >= 0)`},
		{"timeout-nan", []float64{1, 2, 3}, nil, nan, EstimateError{"timeout-nan", "TimeoutMs", -1, nan},
			`online: task "timeout-nan" has non-finite TimeoutMs NaN`},
		{"timeout+inf", []float64{1, 2, 3}, nil, inf, EstimateError{"timeout+inf", "TimeoutMs", -1, inf},
			`online: task "timeout+inf" has non-finite TimeoutMs +Inf`},
		{"timeout-inf", []float64{1, 2, 3}, nil, -inf, EstimateError{"timeout-inf", "TimeoutMs", -1, -inf},
			`online: task "timeout-inf" has non-finite TimeoutMs -Inf`},
	} {
		task := Task{Name: tc.name, EstMs: tc.est, XferMs: tc.xfer, TimeoutMs: tc.timeout}
		_, err := s.Submit(task)
		_, gerr := s.SubmitGraph([]GraphTask{{Task: Task{Name: "ok", EstMs: []float64{1, 1, 1}}}, {Task: task, Deps: []int{0}}})
		for via, err := range map[string]error{"Submit": err, "SubmitGraph": gerr} {
			var got *EstimateError
			if !errors.As(err, &got) {
				t.Errorf("%s %s: error %v (%T) is not an *EstimateError", via, tc.name, err, err)
				continue
			}
			if got.Task != tc.want.Task || got.Field != tc.want.Field || got.Proc != tc.want.Proc ||
				math.Float64bits(got.Value) != math.Float64bits(tc.want.Value) && !(math.IsNaN(got.Value) && math.IsNaN(tc.want.Value)) {
				t.Errorf("%s %s: got %+v, want %+v", via, tc.name, *got, tc.want)
			}
			if err.Error() != tc.msg {
				t.Errorf("%s %s: message %q, want %q", via, tc.name, err.Error(), tc.msg)
			}
		}
	}
	// Zero transfers stay legal: a co-located input costs nothing to stage.
	h, err := s.Submit(Task{Name: "zero-xfer", EstMs: []float64{1, 2, 3}, XferMs: []float64{0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res := <-h.Done; res.Err != nil {
		t.Fatal(res.Err)
	}
}

func TestSubmitBeforeStart(t *testing.T) {
	s, err := New(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Task{EstMs: []float64{1, 2}}); err == nil {
		t.Error("Submit before Start accepted")
	}
	s.Start()
	s.Close()
}

func TestIdleBestProcessorWins(t *testing.T) {
	s := newStarted(t, 3, 4)
	h, err := s.Submit(Task{Name: "t", EstMs: []float64{10, 1, 50}})
	if err != nil {
		t.Fatal(err)
	}
	res := <-h.Done
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Proc != 1 || res.Alt {
		t.Errorf("placed on %d (alt=%v), want best processor 1", res.Proc, res.Alt)
	}
}

// blockingTask returns a task that holds its processor until release is
// closed, plus a channel that reports when it started.
func blockingTask(name string, est []float64) (Task, chan struct{}, chan struct{}) {
	started := make(chan struct{})
	release := make(chan struct{})
	return Task{
		Name:  name,
		EstMs: est,
		Run: func(ctx context.Context, p ProcID) error {
			close(started)
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	}, started, release
}

func TestAlternativeWithinThreshold(t *testing.T) {
	s := newStarted(t, 3, 4)
	// Occupy processor 1 (the best for everything here).
	blocker, started, release := blockingTask("blocker", []float64{10, 1, 50})
	defer close(release)
	if _, err := s.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	<-started
	// Next task: best is busy processor 1 (est 2); alternative processor 0
	// costs 5 <= 4*2, processor 2 costs 50 > 8.
	h, err := s.Submit(Task{Name: "t", EstMs: []float64{5, 2, 50}})
	if err != nil {
		t.Fatal(err)
	}
	res := <-h.Done
	if res.Proc != 0 || !res.Alt {
		t.Errorf("placed on %d (alt=%v), want alternative processor 0", res.Proc, res.Alt)
	}
	if got := s.Stats().AltAssignments; got != 1 {
		t.Errorf("AltAssignments = %d, want 1", got)
	}
}

func TestStrictWaitingAtAlphaOne(t *testing.T) {
	s := newStarted(t, 2, 1)
	blocker, started, release := blockingTask("blocker", []float64{1, 10})
	if _, err := s.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	<-started
	// Best processor 0 is busy; alternative costs 3 > 1*1, so the task
	// must wait for processor 0.
	h, err := s.Submit(Task{Name: "w", EstMs: []float64{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-h.Done:
		t.Fatalf("task ran early on %d", res.Proc)
	case <-time.After(30 * time.Millisecond):
	}
	close(release)
	res := <-h.Done
	if res.Proc != 0 || res.Alt {
		t.Errorf("placed on %d (alt=%v), want best processor 0 after waiting", res.Proc, res.Alt)
	}
}

func TestTransferEstimateBlocksAlternative(t *testing.T) {
	s := newStarted(t, 2, 2)
	blocker, started, release := blockingTask("blocker", []float64{1, 10})
	if _, err := s.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	<-started
	// Alternative exec 1.5 <= 2*1, but transfer 10 pushes it over.
	h, err := s.Submit(Task{Name: "x", EstMs: []float64{1, 1.5}, XferMs: []float64{0, 10}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-h.Done:
		t.Fatalf("task ran early on %d", res.Proc)
	case <-time.After(30 * time.Millisecond):
	}
	close(release)
	if res := <-h.Done; res.Proc != 0 {
		t.Errorf("placed on %d, want 0", res.Proc)
	}
}

func TestManyTasksAllComplete(t *testing.T) {
	s := newStarted(t, 3, 4)
	const n = 200
	var handles []*Handle
	for i := 0; i < n; i++ {
		h, err := s.Submit(Task{
			Name:  fmt.Sprintf("t%d", i),
			EstMs: []float64{float64(1 + i%7), float64(1 + (i*3)%5), float64(1 + (i*5)%11)},
			Run: func(ctx context.Context, p ProcID) error {
				time.Sleep(time.Duration(i%3) * time.Microsecond)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for i, h := range handles {
		if res := <-h.Done; res.Err != nil {
			t.Fatalf("task %d: %v", i, res.Err)
		}
	}
	st := s.Stats()
	if st.Completed != n || st.Submitted != n {
		t.Errorf("stats = %+v, want %d completed", st, n)
	}
	total := 0
	for _, c := range st.PerProc {
		total += c
	}
	if total != n {
		t.Errorf("per-proc sum = %d, want %d", total, n)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	s := newStarted(t, 4, 4)
	const goroutines, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*per)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h, err := s.Submit(Task{
					Name:  fmt.Sprintf("g%d-t%d", g, i),
					EstMs: []float64{1, 2, 3, 4},
				})
				if err != nil {
					errs <- err
					return
				}
				if res := <-h.Done; res.Err != nil {
					errs <- res.Err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Completed != goroutines*per {
		t.Errorf("completed = %d, want %d", st.Completed, goroutines*per)
	}
}

func TestCloseCancelsAndRejects(t *testing.T) {
	s, err := New(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	blocker, started, _ := blockingTask("b", []float64{1, 10})
	h, err := s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// A queued task that cannot start (best busy, alt out of threshold).
	queued, err := s.Submit(Task{Name: "q", EstMs: []float64{1, 100}})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if res := <-h.Done; !errors.Is(res.Err, context.Canceled) {
		t.Errorf("running task err = %v, want context.Canceled", res.Err)
	}
	if res := <-queued.Done; !errors.Is(res.Err, ErrClosed) {
		t.Errorf("queued task err = %v, want ErrClosed", res.Err)
	}
	if _, err := s.Submit(Task{EstMs: []float64{1, 1}}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close err = %v, want ErrClosed", err)
	}
	// Idempotent.
	s.Close()
}

// TestCloseSettlesRacingSubmits closes a scheduler while submitters are
// still admitting tasks into an unbounded queue. A Submit that passed its
// closed check before Close may enqueue after the sweeper's last gather;
// every handle Submit returned must still deliver, and the final Stats
// must show each accepted task settled.
func TestCloseSettlesRacingSubmits(t *testing.T) {
	const rounds, submitters = 100, 4
	body := func(context.Context, ProcID) error {
		time.Sleep(20 * time.Microsecond)
		return nil
	}
	for round := range rounds {
		s, err := NewWithConfig(Config{Procs: 2, Alpha: 4, QueueLimit: -1})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		handles := make([][]*Handle, submitters)
		var wg sync.WaitGroup
		for g := range submitters {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					h, err := s.Submit(Task{EstMs: []float64{1, 2}, Run: body})
					if err != nil {
						return
					}
					handles[g] = append(handles[g], h)
				}
			}()
		}
		time.Sleep(2 * time.Millisecond)
		s.Close()
		wg.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		for _, hs := range handles {
			for _, h := range hs {
				select {
				case <-h.Done:
					continue
				case <-ctx.Done():
				}
				select {
				case <-h.Done: // delivered just as the wait ran out
				default:
					st := s.Stats()
					t.Fatalf("round %d: an accepted task never settled after Close: settled %d of %d",
						round, st.Settled, st.Submitted)
				}
			}
		}
		cancel()
		if st := s.Stats(); st.Settled != st.Submitted {
			t.Fatalf("round %d: settled %d != submitted %d after Close", round, st.Settled, st.Submitted)
		}
	}
}

func TestRunErrorPropagates(t *testing.T) {
	s := newStarted(t, 2, 4)
	boom := errors.New("boom")
	h, err := s.Submit(Task{
		EstMs: []float64{1, 2},
		Run:   func(context.Context, ProcID) error { return boom },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := <-h.Done; !errors.Is(res.Err, boom) {
		t.Errorf("err = %v, want boom", res.Err)
	}
}

// TestSweepDoesNotRetainCompletedTasks pins the queue-retention fix:
// after tasks drain, the pending queue's backing array must hold no
// *pendingTask pointers in its spare capacity. Before the fix, removal via
// append(s.pending[:i], s.pending[i+1:]...) left the final pointer alive
// in the vacated tail slot, so under sustained traffic completed tasks
// (and their captured closures) stayed reachable indefinitely.
func TestSweepDoesNotRetainCompletedTasks(t *testing.T) {
	s := newStarted(t, 1, 1)
	// Occupy the only processor so subsequent submissions stack up in
	// the pending queue and grow its backing array.
	block := make(chan struct{})
	hold, err := s.Submit(Task{
		Name:  "hold",
		EstMs: []float64{1},
		Run:   func(ctx context.Context, p ProcID) error { <-block; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	var handles []*Handle
	for i := 0; i < 16; i++ {
		h, err := s.Submit(Task{Name: fmt.Sprintf("q%d", i), EstMs: []float64{1}})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	close(block)
	<-hold.Done
	for _, h := range handles {
		<-h.Done
	}
	s.pend.mu.Lock()
	defer s.pend.mu.Unlock()
	if len(s.pend.q) != 0 {
		t.Fatalf("pending length = %d after drain, want 0", len(s.pend.q))
	}
	spare := s.pend.q[:cap(s.pend.q)]
	for i, pt := range spare {
		if pt != nil {
			t.Errorf("backing array slot %d still retains task %q after completion", i, pt.task.Name)
		}
	}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for j, pt := range st.q[:cap(st.q)] {
			if pt != nil {
				t.Errorf("stripe %d slot %d still retains task %q", i, j, pt.task.Name)
			}
		}
		st.mu.Unlock()
	}
}

// TestStartCloseRace pins the lifecycle serialisation: Close racing Start
// must neither panic on an unassigned context nor hang on the sweeper
// channel, whichever side wins.
func TestStartCloseRace(t *testing.T) {
	for i := 0; i < 50; i++ {
		s, err := New(2, 4)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); s.Start() }()
		go func() { defer wg.Done(); s.Close() }()
		wg.Wait()
		s.Close() // idempotent regardless of which side won
		if _, err := s.Submit(Task{EstMs: []float64{1, 1}}); err == nil {
			t.Fatal("Submit accepted after Close")
		}
	}
}

func TestFIFOOrderAmongWaiters(t *testing.T) {
	s := newStarted(t, 1, 4)
	// Single processor: tasks must complete in submission order.
	var mu sync.Mutex
	var order []string
	var handles []*Handle
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("t%d", i)
		h, err := s.Submit(Task{
			Name:  name,
			EstMs: []float64{1},
			Run: func(ctx context.Context, p ProcID) error {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		<-h.Done
	}
	for i, name := range order {
		if want := fmt.Sprintf("t%d", i); name != want {
			t.Fatalf("execution order = %v, want FIFO", order)
		}
	}
}
