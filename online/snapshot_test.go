package online

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateRun returns a Run that blocks until the gate channel closes.
func gateRun(gate <-chan struct{}) func(context.Context, ProcID) error {
	return func(ctx context.Context, p ProcID) error {
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// TestQuiesceTimeoutKeepsSchedulerAlive: Quiesce must return the context
// error without shutting down, so a Snapshot can still be taken and the
// blocked work can still finish afterwards.
func TestQuiesceTimeoutKeepsSchedulerAlive(t *testing.T) {
	s, err := New(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()

	gate := make(chan struct{})
	h, err := s.Submit(Task{Name: "blocked", EstMs: []float64{1}, Run: gateRun(gate)})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Quiesce(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Quiesce = %v, want deadline exceeded", err)
	}
	// Still alive: snapshotting works and the task can complete.
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot after Quiesce timeout: %v", err)
	}
	close(gate)
	res := <-h.Done
	if res.Err != nil {
		t.Fatalf("blocked task after gate: %v", res.Err)
	}
}

// TestSnapshotRestoreRoundTrip is the zero-loss proof: on a 1-processor
// scheduler, block the worker, pile up a dependency chain plus independent
// tasks, snapshot, hard-close (losing them locally), then restore into a
// fresh scheduler and watch every captured task run to completion with its
// dependency order intact.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s, err := New(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	gate := make(chan struct{})
	gh, err := s.SubmitGraph([]GraphTask{
		{Task: Task{Name: "a", EstMs: []float64{1}, Run: gateRun(gate)}},
		{Task: Task{Name: "b", EstMs: []float64{1}, Payload: json.RawMessage(`{"k":"v"}`)}, Deps: []int{0}},
		{Task: Task{Name: "c", EstMs: []float64{1}}, Deps: []int{1}},
		{Task: Task{Name: "d", EstMs: []float64{1}}, Deps: []int{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var queued []*Handle
	for _, name := range []string{"q1", "q2"} {
		h, err := s.Submit(Task{Name: name, EstMs: []float64{1}, XferMs: []float64{0.5}})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, h)
	}

	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// a is executing (at-least-once: captured), b..d unreleased, q1 q2
	// queued.
	if got := sn.Count(); got != 6 {
		t.Fatalf("snapshot count = %d, want 6 (got %+v)", got, sn)
	}
	if len(sn.Tasks) != 2 || len(sn.Graphs) != 1 || len(sn.Graphs[0].Tasks) != 4 {
		t.Fatalf("snapshot shape: %d tasks, %d graphs", len(sn.Tasks), len(sn.Graphs))
	}
	if g := sn.Graphs[0]; string(g.Tasks[1].Payload) != `{"k":"v"}` {
		t.Errorf("payload not carried: %q", g.Tasks[1].Payload)
	}
	if sn.Tasks[0].XferMs == nil {
		t.Errorf("xfer_ms not carried for queued task")
	}

	// Serialise through JSON like the server does.
	var buf bytes.Buffer
	if err := sn.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sn2, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sn2.Count() != sn.Count() || sn2.Procs != 1 {
		t.Fatalf("round-tripped snapshot differs: %+v", sn2)
	}

	// Hard close: the captured tasks fail locally with ErrClosed.
	close(gate)
	s.Close()
	<-gh.Done
	for _, h := range queued {
		<-h.Done
	}

	// Restore into a fresh scheduler, recording execution order.
	s2, err := New(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer s2.Close()
	var mu sync.Mutex
	var ran []string
	var wg sync.WaitGroup
	wg.Add(sn2.Count())
	rebuild := func(st SnapshotTask) (func(context.Context, ProcID) error, error) {
		name := st.Name
		return func(ctx context.Context, p ProcID) error {
			mu.Lock()
			ran = append(ran, name)
			mu.Unlock()
			wg.Done()
			return nil
		}, nil
	}
	n, err := Restore(context.Background(), s2, sn2, rebuild)
	if err != nil {
		t.Fatal(err)
	}
	if n != sn2.Count() {
		t.Fatalf("restored %d, want %d", n, sn2.Count())
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 6 {
		t.Fatalf("ran %d tasks, want 6: %v", len(ran), ran)
	}
	pos := map[string]int{}
	for i, name := range ran {
		pos[name] = i
	}
	for _, edge := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		if pos[edge[0]] > pos[edge[1]] {
			t.Errorf("dependency order violated: %s ran after %s (%v)", edge[0], edge[1], ran)
		}
	}
}

// TestSnapshotExcludesDoomedTasks: nodes marked by a failed predecessor
// must not be captured — replaying them would rerun work the graph
// semantics already declared dead.
func TestSnapshotExcludesDoomedTasks(t *testing.T) {
	s, err := New(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()

	gate := make(chan struct{})
	cStarted := make(chan struct{})
	boom := errors.New("boom")
	gh, err := s.SubmitGraph([]GraphTask{
		// Both entries contend for the single worker: a runs first (entry
		// release order), fails and dooms b; then c starts and blocks.
		// The same worker goroutine finishes a's failure propagation
		// before it picks up c, so once c has started, b is settled.
		{Task: Task{Name: "a", EstMs: []float64{1}, Run: func(ctx context.Context, p ProcID) error { return boom }}},
		{Task: Task{Name: "b", EstMs: []float64{1}}, Deps: []int{0}},
		{Task: Task{Name: "c", EstMs: []float64{1}, Run: func(ctx context.Context, p ProcID) error {
			close(cStarted)
			return gateRun(gate)(ctx, p)
		}}},
		{Task: Task{Name: "d", EstMs: []float64{1}}, Deps: []int{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-cStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("c never started")
	}

	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(sn.Graphs) != 1 {
		t.Fatalf("want 1 graph frontier, got %+v", sn)
	}
	var names []string
	for _, gt := range sn.Graphs[0].Tasks {
		names = append(names, gt.Name)
	}
	sort.Strings(names)
	if len(names) != 2 || names[0] != "c" || names[1] != "d" {
		t.Fatalf("frontier = %v, want [c d] (b doomed by a's failure)", names)
	}

	close(gate)
	res := <-gh.Done
	if !errors.Is(res.Err, boom) {
		t.Fatalf("graph err = %v, want boom", res.Err)
	}
}

func TestReadSnapshotRejectsVersionSkew(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte(`{"version":99,"procs":1,"alpha":4}`))); err == nil {
		t.Fatal("version 99 accepted")
	}
	sn := &Snapshot{Version: SnapshotVersion, Procs: 2, Alpha: 4}
	s, err := New(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	if _, err := Restore(context.Background(), s, sn, nil); err == nil {
		t.Fatal("processor-count mismatch accepted")
	}
}

// TestSnapshotVersionSkew: only the current version is read or restored;
// an older version-1 file is refused rather than restored with zeroed
// attempts and closed breakers.
func TestSnapshotVersionSkew(t *testing.T) {
	v1 := `{"version": 1, "procs": 2, "alpha": 4, "tasks": [{"name": "legacy", "est_ms": [1, 2]}]}`
	if _, err := ReadSnapshot(bytes.NewReader([]byte(v1))); err == nil {
		t.Error("version-1 snapshot accepted by ReadSnapshot")
	}
	s := newStarted(t, 2, 4)
	sn := &Snapshot{Version: 1, Procs: 2, Alpha: 4, Tasks: []SnapshotTask{{Name: "legacy", EstMs: []float64{1, 2}}}}
	if n, err := Restore(context.Background(), s, sn, nil); err == nil || n != 0 {
		t.Errorf("Restore of a version-1 snapshot = %d, %v; want 0 and an error", n, err)
	}
}

// TestRestoreIsAllOrNothing: a bad entry anywhere in the snapshot fails the
// restore before anything is submitted, so a retried boot never finds half
// the work already running.
func TestRestoreIsAllOrNothing(t *testing.T) {
	good := SnapshotTask{Name: "good", EstMs: []float64{1, 2}}
	bad := SnapshotTask{Name: "bad", EstMs: []float64{1}} // 1 estimate for 2 processors
	graph := SnapshotGraph{Tasks: []SnapshotTask{good, {Name: "leaf", EstMs: []float64{2, 1}, Deps: []int{0}}}}
	cycle := SnapshotGraph{Tasks: []SnapshotTask{
		{Name: "a", EstMs: []float64{1, 2}, Deps: []int{1}},
		{Name: "b", EstMs: []float64{1, 2}, Deps: []int{0}},
	}}
	for _, tc := range []struct {
		name string
		sn   Snapshot
	}{
		{"bad last task", Snapshot{Tasks: []SnapshotTask{good, good, bad}, Graphs: []SnapshotGraph{graph}}},
		{"bad task in second graph", Snapshot{Tasks: []SnapshotTask{good}, Graphs: []SnapshotGraph{graph, {Tasks: []SnapshotTask{good, bad}}}}},
		{"cyclic second graph", Snapshot{Tasks: []SnapshotTask{good}, Graphs: []SnapshotGraph{graph, cycle}}},
	} {
		s := newStarted(t, 2, 4)
		sn := tc.sn
		sn.Version, sn.Procs, sn.Alpha = SnapshotVersion, 2, 4
		n, err := Restore(context.Background(), s, &sn, nil)
		if err == nil || n != 0 {
			t.Errorf("%s: Restore = %d, %v; want 0 and an error", tc.name, n, err)
		}
		if got := s.Stats().Submitted; got != 0 {
			t.Errorf("%s: Submitted = %d after a failed restore, want 0", tc.name, got)
		}
	}
}

// TestSnapshotCarriesAttemptsAndBreakers: a parked retry is captured with
// its used attempts, breaker state round-trips, and the restored task
// resumes its budget instead of starting over.
func TestSnapshotCarriesAttemptsAndBreakers(t *testing.T) {
	retry := RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Hour, MaxBackoff: time.Hour}
	brk := &BreakerConfig{FailureThreshold: 1, Cooldown: 10 * time.Millisecond}
	s, err := NewWithConfig(Config{Procs: 2, Alpha: 1, Retry: retry, Breaker: brk})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	// Pinned to proc 0; fails once, parking a retry behind the 1h backoff
	// and tripping proc 0's breaker.
	h, err := s.Submit(Task{Name: "r", EstMs: []float64{1, 1000}, Run: func(context.Context, ProcID) error {
		return errors.New("fail once")
	}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Retries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("retry never parked")
		}
		time.Sleep(time.Millisecond)
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sn.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sn, err = ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Version != SnapshotVersion {
		t.Errorf("version = %d, want %d", sn.Version, SnapshotVersion)
	}
	if len(sn.Tasks) != 1 || sn.Tasks[0].Attempts != 1 {
		t.Fatalf("tasks = %+v, want one task with 1 attempt", sn.Tasks)
	}
	if len(sn.Breakers) != 2 || sn.Breakers[0].State != "open" || sn.Breakers[0].Trips != 1 {
		t.Fatalf("breakers = %+v, want proc 0 open with 1 trip", sn.Breakers)
	}
	s.Close()
	<-h.Done // parked retry fails with ErrClosed locally

	// Restore into a fresh scheduler: 1 of the 2-attempt budget is already
	// used, so the restored attempt is the last — it settles immediately
	// with the terminal error. Had the budget been reset, the failure
	// would park behind the 1h backoff and Quiesce would time out.
	// Breaker state carries over too: proc 0 starts open, then recovers
	// via its cooldown.
	s2, err := NewWithConfig(Config{Procs: 2, Alpha: 1, Retry: retry, Breaker: brk})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer s2.Close()
	var calls int32
	n, err := Restore(context.Background(), s2, sn, func(SnapshotTask) (func(context.Context, ProcID) error, error) {
		return func(context.Context, ProcID) error {
			atomic.AddInt32(&calls, 1)
			return errors.New("still failing")
		}, nil
	})
	if err != nil || n != 1 {
		t.Fatalf("restore = %d, %v", n, err)
	}
	if ph := s2.ProcHealth(); ph[0].Trips != 1 {
		t.Errorf("restored trips = %d, want 1", ph[0].Trips)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s2.Quiesce(ctx); err != nil {
		t.Fatalf("restored task never settled (retry budget not carried over?): %v", err)
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Errorf("restored task ran %d attempts, want 1 (budget carried over)", got)
	}
}
