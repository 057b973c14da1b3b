package online

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func est(np int, v float64) []float64 {
	out := make([]float64, np)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestSubmitGraphChain(t *testing.T) {
	s := newStarted(t, 3, 4)
	var mu sync.Mutex
	var order []string
	node := func(name string, deps ...int) GraphTask {
		return GraphTask{
			Task: Task{
				Name:  name,
				EstMs: est(3, 1),
				Run: func(ctx context.Context, p ProcID) error {
					mu.Lock()
					order = append(order, name)
					mu.Unlock()
					return nil
				},
			},
			Deps: deps,
		}
	}
	h, err := s.SubmitGraph([]GraphTask{node("a"), node("b", 0), node("c", 1)})
	if err != nil {
		t.Fatal(err)
	}
	res := <-h.Done
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if want := []string{"a", "b", "c"}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("execution order = %v, want %v", order, want)
	}
}

func TestSubmitGraphValidation(t *testing.T) {
	s := newStarted(t, 2, 4)
	if _, err := s.SubmitGraph(nil); err == nil {
		t.Error("empty graph accepted")
	}
	mk := func(deps ...int) GraphTask { return GraphTask{Task: Task{EstMs: est(2, 1)}, Deps: deps} }
	if _, err := s.SubmitGraph([]GraphTask{mk(5)}); err == nil {
		t.Error("out-of-range dependency accepted")
	}
	if _, err := s.SubmitGraph([]GraphTask{mk(0)}); err == nil {
		t.Error("self dependency accepted")
	}
	if _, err := s.SubmitGraph([]GraphTask{mk(1), mk(0)}); err == nil {
		t.Error("cycle accepted")
	}
	if _, err := s.SubmitGraph([]GraphTask{{Task: Task{EstMs: est(3, 1)}}}); err == nil {
		t.Error("wrong estimate count accepted")
	}
	// Validation failures must not have submitted anything.
	if st := s.Stats(); st.Submitted != 0 {
		t.Errorf("Submitted = %d after rejected graphs, want 0", st.Submitted)
	}
}

func TestSubmitGraphFailurePropagates(t *testing.T) {
	s := newStarted(t, 2, 4)
	boom := errors.New("boom")
	tasks := []GraphTask{
		{Task: Task{Name: "ok", EstMs: est(2, 1)}},
		{Task: Task{Name: "fail", EstMs: est(2, 1), Run: func(context.Context, ProcID) error { return boom }}},
		{Task: Task{Name: "dep-of-fail", EstMs: est(2, 1)}, Deps: []int{1}},
		{Task: Task{Name: "dep-of-ok", EstMs: est(2, 1)}, Deps: []int{0}},
		{Task: Task{Name: "transitive", EstMs: est(2, 1)}, Deps: []int{2}},
	}
	h, err := s.SubmitGraph(tasks)
	if err != nil {
		t.Fatal(err)
	}
	res := <-h.Done
	if !errors.Is(res.Err, boom) {
		t.Fatalf("graph err = %v, want boom", res.Err)
	}
	if res.Results[0].Err != nil || res.Results[3].Err != nil {
		t.Errorf("independent branch failed: %v, %v", res.Results[0].Err, res.Results[3].Err)
	}
	if !errors.Is(res.Results[1].Err, boom) {
		t.Errorf("failing task err = %v", res.Results[1].Err)
	}
	for _, i := range []int{2, 4} {
		if !errors.Is(res.Results[i].Err, ErrDependency) {
			t.Errorf("dependent %d err = %v, want ErrDependency", i, res.Results[i].Err)
		}
	}
}

// TestSubmitGraphDependencyOrdering drives a random layered DAG through a
// concurrent scheduler and asserts, from inside every task, that all
// predecessors had finished before it started. Run with -race this also
// shakes out synchronisation bugs in the release path.
func TestSubmitGraphDependencyOrdering(t *testing.T) {
	s := newStarted(t, 4, 8)
	const n = 400
	rng := rand.New(rand.NewSource(7))
	finished := make([]atomic.Bool, n)
	tasks := make([]GraphTask, n)
	var violations atomic.Int32
	for i := 0; i < n; i++ {
		i := i
		var deps []int
		for d := 0; d < 3 && i > 0; d++ {
			deps = append(deps, rng.Intn(i))
		}
		tasks[i] = GraphTask{
			Task: Task{
				Name:  fmt.Sprintf("t%d", i),
				EstMs: []float64{1 + float64(i%5), 1 + float64((i*3)%7), 2, 3},
				Run: func(ctx context.Context, p ProcID) error {
					for _, d := range deps {
						if !finished[d].Load() {
							violations.Add(1)
						}
					}
					finished[i].Store(true)
					return nil
				},
			},
			Deps: deps,
		}
	}
	h, err := s.SubmitGraph(tasks)
	if err != nil {
		t.Fatal(err)
	}
	res := <-h.Done
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d tasks started before a predecessor finished", v)
	}
	for i := range finished {
		if !finished[i].Load() {
			t.Fatalf("task %d never ran", i)
		}
	}
	if st := s.Stats(); st.Completed != n {
		t.Errorf("Completed = %d, want %d", st.Completed, n)
	}
}

// TestSubmitGraphConcurrentWithSubmits interleaves plain submissions with
// graph submissions from several goroutines.
func TestSubmitGraphConcurrentWithSubmits(t *testing.T) {
	s := newStarted(t, 4, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				h, err := s.SubmitGraph([]GraphTask{
					{Task: Task{Name: "a", EstMs: est(4, 1)}},
					{Task: Task{Name: "b", EstMs: est(4, 2)}, Deps: []int{0}},
					{Task: Task{Name: "c", EstMs: est(4, 3)}, Deps: []int{0}},
					{Task: Task{Name: "d", EstMs: est(4, 1)}, Deps: []int{1, 2}},
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
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				h, err := s.Submit(Task{Name: "plain", EstMs: est(4, 1)})
				if err != nil {
					errs <- err
					return
				}
				if res := <-h.Done; res.Err != nil {
					errs <- res.Err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := 4*8*4 + 4*32
	if st := s.Stats(); st.Completed != want {
		t.Errorf("Completed = %d, want %d", st.Completed, want)
	}
}

func TestSubmitGraphAfterClose(t *testing.T) {
	s, err := New(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Close()
	if _, err := s.SubmitGraph([]GraphTask{{Task: Task{EstMs: est(2, 1)}}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitGraph after Close err = %v, want ErrClosed", err)
	}
}

func TestDrainFinishesGraph(t *testing.T) {
	s := newStarted(t, 2, 4)
	const n = 30
	tasks := make([]GraphTask, n)
	for i := range tasks {
		deps := []int{}
		if i > 0 {
			deps = append(deps, i-1)
		}
		tasks[i] = GraphTask{Task: Task{Name: fmt.Sprintf("t%d", i), EstMs: est(2, 1)}, Deps: deps}
	}
	h, err := s.SubmitGraph(tasks)
	if err != nil {
		t.Fatal(err)
	}
	// Quiesce must let the chain's internal releases keep flowing even
	// though external admission stops immediately.
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	select {
	case res := <-h.Done:
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	default:
		t.Fatal("graph not finished after Quiesce returned")
	}
	if _, err := s.Submit(Task{EstMs: est(2, 1)}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close err = %v, want ErrClosed", err)
	}
	if st := s.Stats(); st.Completed != n || st.Submitted != n {
		t.Errorf("stats = %+v, want %d completed", st, n)
	}
}
