package online

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
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
// positive and every transfer finite and non-negative, and the error names
// the task and the offending processor.
func TestSubmitRejectsNonFiniteInputs(t *testing.T) {
	s := newStarted(t, 3, 4)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name      string
		est, xfer []float64
		wantInMsg string
	}{
		{"est+inf", []float64{1, inf, 2}, nil, "processor 1"},
		{"est-inf", []float64{1, 2, -inf}, nil, "processor 2"},
		{"est-nan", []float64{nan, 1, 2}, nil, "processor 0"},
		{"xfer-nan", []float64{1, 2, 3}, []float64{0, nan, 0}, "processor 1"},
		{"xfer+inf", []float64{1, 2, 3}, []float64{0, 0, inf}, "processor 2"},
		{"xfer-inf", []float64{1, 2, 3}, []float64{-inf, 0, 0}, "processor 0"},
		{"xfer-negative", []float64{1, 2, 3}, []float64{0, -0.5, 0}, "processor 1"},
	} {
		_, err := s.Submit(Task{Name: tc.name, EstMs: tc.est, XferMs: tc.xfer})
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, `"`+tc.name+`"`) || !strings.Contains(msg, tc.wantInMsg) {
			t.Errorf("%s: error %q does not name the task and %s", tc.name, msg, tc.wantInMsg)
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
