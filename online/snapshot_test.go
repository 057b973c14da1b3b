package online

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sort"
	"strings"
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

// TestSnapshotKeepsTaskTimeout: a task's own TimeoutMs survives a snapshot
// file and bounds the restored task, instead of the restoring scheduler's
// DefaultTimeoutMs. An explicitly unbounded task (-1) outlives a 10 ms
// default; an explicit 5 ms bound still fires where there is no default.
func TestSnapshotKeepsTaskTimeout(t *testing.T) {
	gate := make(chan struct{})
	s := newStarted(t, 1, 4)
	if _, err := s.Submit(Task{Name: "blocker", EstMs: []float64{1}, Run: gateRun(gate)}); err != nil {
		t.Fatal(err)
	}
	for _, task := range []Task{
		{Name: "unbounded", EstMs: []float64{1}, TimeoutMs: -1},
		{Name: "bounded", EstMs: []float64{1}, TimeoutMs: 5},
	} {
		if _, err := s.Submit(task); err != nil {
			t.Fatal(err)
		}
	}
	sn, err := s.Snapshot()
	close(gate)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sn.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if sn, err = ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if len(sn.Tasks) != 2 || sn.Tasks[0].TimeoutMs != -1 || sn.Tasks[1].TimeoutMs != 5 {
		t.Fatalf("snapshot tasks = %+v, want TimeoutMs -1 and 5", sn.Tasks)
	}

	body := func(SnapshotTask) (func(context.Context, ProcID) error, error) {
		return func(ctx context.Context, p ProcID) error {
			select {
			case <-time.After(50 * time.Millisecond):
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}, nil
	}
	for _, tc := range []struct {
		name      string
		defMs     float64
		task      SnapshotTask
		wantTimes int
	}{
		{"unbounded under a 10 ms default", 10, sn.Tasks[0], 0},
		{"5 ms bound without a default", 0, sn.Tasks[1], 1},
	} {
		s2 := newStartedCfg(t, Config{Procs: 1, Alpha: 4, DefaultTimeoutMs: tc.defMs})
		one := &Snapshot{Version: SnapshotVersion, Procs: 1, Alpha: 4, Tasks: []SnapshotTask{tc.task}}
		if n, err := Restore(context.Background(), s2, one, body); err != nil || n != 1 {
			t.Fatalf("%s: Restore = %d, %v", tc.name, n, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := s2.Quiesce(ctx)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st := s2.Stats(); st.Timeouts != tc.wantTimes || st.Failed != tc.wantTimes {
			t.Errorf("%s: %d timeouts, %d failed; want %d of each", tc.name, st.Timeouts, st.Failed, tc.wantTimes)
		}
	}
}

// TestRestoreRefusesMalformedEntries: entries that would otherwise restore
// as something else — an unknown breaker state as closed, a negative count
// delaying the next trip, breaker entries past the last processor skipped,
// an out-of-range attempt count ignored or wrapped — fail the restore,
// name the entry, and submit nothing.
func TestRestoreRefusesMalformedEntries(t *testing.T) {
	task := SnapshotTask{Name: "queued", EstMs: []float64{1, 2}}
	for _, tc := range []struct {
		name     string
		breakers []SnapshotBreaker
		attempts int
		want     string
	}{
		{"unknown breaker state", []SnapshotBreaker{{State: "closed"}, {State: "ajar"}}, 0, `breaker 1: unknown state "ajar"`},
		{"empty breaker state", []SnapshotBreaker{{}}, 0, `breaker 0: unknown state ""`},
		{"negative consecutive fails", []SnapshotBreaker{{State: "closed", ConsecutiveFails: -3}}, 0, "breaker 0: negative count"},
		{"negative trips", []SnapshotBreaker{{State: "closed"}, {State: "open", Trips: -1}}, 0, "breaker 1: negative count"},
		{"breakers beyond procs", []SnapshotBreaker{{State: "closed"}, {State: "closed"}, {State: "open"}}, 0, "3 breaker entries for 2 processors"},
		{"negative attempts", nil, -1, `"queued": attempts -1`},
		{"attempts beyond 32 bits", nil, 1 << 40, `"queued": attempts 1099511627776`},
	} {
		s := newStartedCfg(t, Config{Procs: 2, Alpha: 4, Breaker: &BreakerConfig{}})
		tk := task
		tk.Attempts = tc.attempts
		sn := &Snapshot{Version: SnapshotVersion, Procs: 2, Alpha: 4, Tasks: []SnapshotTask{tk}, Breakers: tc.breakers}
		n, err := Restore(context.Background(), s, sn, nil)
		if err == nil || n != 0 {
			t.Errorf("%s: Restore = %d, %v; want 0 and an error", tc.name, n, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the entry (%q)", tc.name, err, tc.want)
		}
		if got := s.Stats().Submitted; got != 0 {
			t.Errorf("%s: Submitted = %d after a refused restore, want 0", tc.name, got)
		}
	}
}

// snapshotSeed captures a real snapshot: proc 0's breaker open after two
// failures whose retries wait out an hour's backoff (used attempts), proc
// 1 held by a blocker, independent tasks with and without their own
// timeout queued behind it, and a graph whose frontier is all three of its
// tasks.
func snapshotSeed(f *testing.F) []byte {
	f.Helper()
	s, err := NewWithConfig(Config{
		Procs: 2, Alpha: 4, QueueLimit: -1,
		Retry:   RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Hour, MaxBackoff: time.Hour},
		Breaker: &BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour},
	})
	if err != nil {
		f.Fatal(err)
	}
	s.Start()
	defer s.Close()
	fail := func(context.Context, ProcID) error { return errors.New("injected") }
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(Task{Name: "failing", EstMs: []float64{1, 100}, Run: fail}); err != nil {
			f.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for s.Stats().Retries <= i {
			if time.Now().After(deadline) {
				f.Fatal("retry never parked")
			}
			time.Sleep(time.Millisecond)
		}
	}
	block := func(ctx context.Context, p ProcID) error { <-ctx.Done(); return nil }
	for _, task := range []Task{
		{Name: "blocker", EstMs: []float64{1, 1}, Run: block},
		{Name: "queued", EstMs: []float64{2, 3}, Payload: json.RawMessage(`{"k":1}`)},
		{Name: "unbounded", EstMs: []float64{1, 4}, TimeoutMs: -1},
		{Name: "bounded", EstMs: []float64{5, 1}, TimeoutMs: 250},
	} {
		if _, err := s.Submit(task); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := s.SubmitGraph([]GraphTask{
		{Task: Task{Name: "a", EstMs: []float64{1, 2}}},
		{Task: Task{Name: "b", EstMs: []float64{2, 1}, TimeoutMs: 40}, Deps: []int{0}},
		{Task: Task{Name: "c", EstMs: []float64{1, 1}}, Deps: []int{0, 1}},
	}); err != nil {
		f.Fatal(err)
	}
	sn, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	if len(sn.Tasks) != 5 || len(sn.Graphs) != 1 || len(sn.Breakers) != 2 || sn.Breakers[0].State != "open" {
		f.Fatalf("seed snapshot = %+v, want 3 queued tasks, 2 parked retries, a graph and proc 0 open", sn)
	}
	var buf bytes.Buffer
	if err := sn.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSnapshotRestore feeds arbitrary bytes through ReadSnapshot and
// Restore into a scheduler whose processors are held busy, so every
// restored task stays queued. Neither call may panic; a failed restore
// submits nothing; a successful one submits exactly sn.Count() tasks, and
// a snapshot of the target carries each back with its name, timeout and
// used attempts.
func FuzzSnapshotRestore(f *testing.F) {
	seed := snapshotSeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(bytes.Replace(seed, []byte(`"version": 2`), []byte(`"version": 1`), 1))
	f.Add(bytes.Replace(seed, []byte(`"procs": 2`), []byte(`"procs": 3`), 1))
	f.Add([]byte(`{"version":2,"procs":2,"alpha":4,"tasks":[{"name":"t","est_ms":[1,2],"attempts":-1}]}`))
	f.Add([]byte(`{"version":2,"procs":2,"alpha":4,"breakers":[{"state":"ajar"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sn, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		s, err := NewWithConfig(Config{Procs: 2, Alpha: 4, QueueLimit: -1, Breaker: &BreakerConfig{}})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		defer s.Close()
		block := func(ctx context.Context, p ProcID) error { <-ctx.Done(); return nil }
		for i := 0; i < 2; i++ {
			if _, err := s.Submit(Task{Name: "blocker", EstMs: []float64{1, 1}, Run: block}); err != nil {
				t.Fatal(err)
			}
		}
		n, err := Restore(context.Background(), s, sn, nil)
		if err != nil {
			if extra := s.Stats().Submitted - 2; n != 0 || extra != 0 {
				t.Fatalf("failed restore (%v) reported %d tasks and submitted %d beyond the blockers", err, n, extra)
			}
			return
		}
		if n != sn.Count() {
			t.Fatalf("restore submitted %d tasks, snapshot holds %d", n, sn.Count())
		}
		back, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want := append([]SnapshotTask(nil), sn.Tasks...)
		for _, g := range sn.Graphs {
			want = append(want, g.Tasks...)
		}
		got := append([]SnapshotTask(nil), back.Tasks...)
		for _, g := range back.Graphs {
			got = append(got, g.Tasks...)
		}
		if len(got) != len(want) {
			t.Fatalf("target holds %d tasks, snapshot restored %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].TimeoutMs != want[i].TimeoutMs || got[i].Attempts != want[i].Attempts {
				t.Fatalf("task %d restored as %q timeout %v attempts %d, snapshot had %q timeout %v attempts %d",
					i, got[i].Name, got[i].TimeoutMs, got[i].Attempts, want[i].Name, want[i].TimeoutMs, want[i].Attempts)
			}
		}
	})
}
