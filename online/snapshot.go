package online

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// SnapshotVersion is the format version written by Snapshot.WriteJSON,
// and the only one ReadSnapshot and Restore accept. Bump on any
// incompatible schema change.
const SnapshotVersion = 2

// SnapshotTask is one serialised task. Run functions cannot cross a
// process boundary, so the snapshot carries the placement inputs and the
// opaque Payload; the restoring process rebuilds Run via a RebuildFunc.
type SnapshotTask struct {
	Name    string          `json:"name"`
	EstMs   []float64       `json:"est_ms"`
	XferMs  []float64       `json:"xfer_ms,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
	// Deps holds intra-graph dependency indices (into the enclosing
	// SnapshotGraph.Tasks); always empty for independent tasks.
	Deps []int `json:"deps,omitempty"`
	// Attempts is how many execution attempts the task had already used at
	// capture time; a restored task resumes its retry budget from here
	// instead of starting over.
	Attempts int `json:"attempts,omitempty"`
	// TimeoutMs is the task's own Task.TimeoutMs: 0 (or absent) inherits
	// the restoring scheduler's DefaultTimeoutMs, negative is unbounded.
	TimeoutMs float64 `json:"timeout_ms,omitempty"`
}

// SnapshotBreaker is one processor's circuit-breaker state at capture
// time. Restore re-arms an open breaker with a fresh cooldown: the fault
// that tripped it may well outlive the restart.
type SnapshotBreaker struct {
	State            string `json:"state"` // "closed", "open" or "half-open"
	ConsecutiveFails int    `json:"consecutive_fails,omitempty"`
	Trips            int    `json:"trips,omitempty"`
}

// SnapshotGraph is the unfinished frontier of one SubmitGraph job:
// the not-yet-finished tasks with dependency edges remapped among
// themselves (edges to finished predecessors are dropped, nodes doomed by
// a failed predecessor are excluded).
type SnapshotGraph struct {
	Tasks []SnapshotTask `json:"tasks"`
}

// Snapshot is a versioned, JSON-serialisable capture of a scheduler's
// accepted-but-unfinished work: independent tasks still waiting for a
// processor plus the unfinished frontier of every in-flight graph.
//
// Semantics are at-least-once: a task that was executing at capture time
// is included (its completion had not been observed), so after a restore
// it runs again. Tasks whose completion was recorded are never included.
type Snapshot struct {
	Version int     `json:"version"`
	Procs   int     `json:"procs"`
	Alpha   float64 `json:"alpha"`

	Tasks  []SnapshotTask  `json:"tasks,omitempty"`
	Graphs []SnapshotGraph `json:"graphs,omitempty"`
	// Breakers holds per-processor breaker state, indexed by processor
	// (empty when the captured scheduler ran without breakers).
	Breakers []SnapshotBreaker `json:"breakers,omitempty"`
}

// Count returns the total number of tasks the snapshot carries.
func (sn *Snapshot) Count() int {
	n := len(sn.Tasks)
	for _, g := range sn.Graphs {
		n += len(g.Tasks)
	}
	return n
}

// snapTask deep-copies a task's serialisable fields.
func snapTask(t *Task, deps []int, attempts int) SnapshotTask {
	return SnapshotTask{
		Name:      t.Name,
		EstMs:     append([]float64(nil), t.EstMs...),
		XferMs:    append([]float64(nil), t.XferMs...),
		Payload:   append(json.RawMessage(nil), t.Payload...),
		Deps:      deps,
		Attempts:  attempts,
		TimeoutMs: t.TimeoutMs,
	}
}

// Snapshot captures the scheduler's accepted-but-unfinished work. It is
// meant for the drain-timeout path: quiesce first (Quiesce), snapshot
// what did not finish in time, then Close — tasks the snapshot captured
// may still fail with ErrClosed locally, but the snapshot preserves them
// for a restored scheduler. Snapshotting a live, un-drained scheduler is
// safe too (the queues are locked briefly); it simply races with ongoing
// placements, which only moves tasks between the "queued" (captured) and
// "executing" (captured, at-least-once) cases.
func (s *Scheduler) Snapshot() (*Snapshot, error) {
	if !s.started.Load() {
		return nil, fmt.Errorf("online: Snapshot before Start")
	}
	sn := &Snapshot{Version: SnapshotVersion, Procs: s.np, Alpha: s.Alpha()}

	// Queued independent tasks: gather the stripes into the FCFS queue and
	// copy every externally-submitted waiter (graph-internal tasks have no
	// done channel; their jobs capture them below, including the ones
	// already released into this queue).
	s.pend.mu.Lock()
	q := s.gatherLocked()
	s.pend.q = q
	for _, lt := range q {
		if lt.done != nil {
			sn.Tasks = append(sn.Tasks, snapTask(&lt.task, nil, int(lt.attempt.Load())))
		}
	}
	s.pend.mu.Unlock()

	// Independent tasks waiting out a retry backoff (graph-internal
	// retries are captured by their job's frontier below).
	for _, lt := range s.retrySnapshot() {
		sn.Tasks = append(sn.Tasks, snapTask(&lt.task, nil, int(lt.attempt.Load())))
	}

	for _, j := range s.graphJobs() {
		if sg, ok := j.snapshotFrontier(); ok {
			sn.Graphs = append(sn.Graphs, sg)
		}
	}

	if s.brk != nil {
		for _, ph := range s.ProcHealth() {
			sn.Breakers = append(sn.Breakers, SnapshotBreaker{
				State:            ph.State,
				ConsecutiveFails: ph.ConsecutiveFails,
				Trips:            ph.Trips,
			})
		}
	}
	return sn, nil
}

// WriteJSON writes the snapshot as indented JSON.
func (sn *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sn)
}

// ReadSnapshot parses a snapshot written by WriteJSON and validates its
// version.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var sn Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&sn); err != nil {
		return nil, fmt.Errorf("online: invalid snapshot: %w", err)
	}
	if sn.Version != SnapshotVersion {
		return nil, fmt.Errorf("online: snapshot version %d, want %d", sn.Version, SnapshotVersion)
	}
	return &sn, nil
}

// RebuildFunc reconstructs a task's Run function from its serialised
// form, typically by interpreting SnapshotTask.Payload. Returning an
// error aborts the restore.
type RebuildFunc func(SnapshotTask) (func(context.Context, ProcID) error, error)

// Restore resubmits a snapshot's tasks into s through the normal
// admission path: independent tasks via SubmitCtx (blocking on the queue
// bound, honouring ctx) and graph frontiers as SubmitGraph admits them.
// rebuild reconstructs each task's Run function; a nil rebuild restores
// every task as a no-op (useful for tests and for draining a backlog
// without side effects). Every task, graph and breaker entry is rebuilt
// and validated before the first task is submitted, so a bad entry — an
// invalid task or graph, a negative or out-of-range attempt count, an
// unknown breaker state, a negative breaker count or more breaker entries
// than processors — restores nothing. Restore returns the number of tasks
// submitted; if admission itself fails (ctx cancelled, scheduler closing),
// the count covers what went in before.
//
// Submission order is the snapshot's: queued independent tasks, then
// those waiting out a retry backoff, then graph frontiers. So a graph task
// that waited ahead of an independent one at capture time is placed after
// it.
//
// The target scheduler must be started and have the same processor count
// as the snapshot (estimate vectors are per-processor).
func Restore(ctx context.Context, s *Scheduler, sn *Snapshot, rebuild RebuildFunc) (int, error) {
	if sn.Version != SnapshotVersion {
		return 0, fmt.Errorf("online: snapshot version %d, want %d", sn.Version, SnapshotVersion)
	}
	if sn.Procs != s.np {
		return 0, fmt.Errorf("online: snapshot for %d processors, scheduler has %d", sn.Procs, s.np)
	}
	if len(sn.Breakers) > s.np {
		return 0, fmt.Errorf("online: snapshot has %d breaker entries for %d processors", len(sn.Breakers), s.np)
	}
	for p, sb := range sn.Breakers {
		switch {
		case sb.State != "closed" && sb.State != "open" && sb.State != "half-open":
			return 0, fmt.Errorf("online: restore breaker %d: unknown state %q", p, sb.State)
		case sb.ConsecutiveFails < 0 || sb.Trips < 0:
			return 0, fmt.Errorf("online: restore breaker %d: negative count (consecutive_fails %d, trips %d)",
				p, sb.ConsecutiveFails, sb.Trips)
		}
	}
	restoreTask := func(st SnapshotTask) (Task, error) {
		// The attempt counter is 32 bits wide.
		if st.Attempts < 0 || st.Attempts > math.MaxInt32 {
			return Task{}, fmt.Errorf("online: restore %q: attempts %d out of range", st.Name, st.Attempts)
		}
		t := Task{Name: st.Name, EstMs: st.EstMs, XferMs: st.XferMs, Payload: st.Payload, TimeoutMs: st.TimeoutMs, restoredAttempts: st.Attempts}
		if rebuild != nil {
			run, err := rebuild(st)
			if err != nil {
				return Task{}, fmt.Errorf("online: rebuild %q: %w", st.Name, err)
			}
			t.Run = run
		}
		return t, nil
	}
	// Validation only: SubmitCtx and SubmitGraph prepare everything again.
	tasks := make([]Task, len(sn.Tasks))
	for i, st := range sn.Tasks {
		t, err := restoreTask(st)
		if err != nil {
			return 0, err
		}
		if _, err := s.prepare(t, nil); err != nil {
			return 0, fmt.Errorf("online: restore %q: %w", st.Name, err)
		}
		tasks[i] = t
	}
	graphs := make([][]GraphTask, len(sn.Graphs))
	for gi, sg := range sn.Graphs {
		graphs[gi] = make([]GraphTask, len(sg.Tasks))
		for i, st := range sg.Tasks {
			t, err := restoreTask(st)
			if err != nil {
				return 0, err
			}
			graphs[gi][i] = GraphTask{Task: t, Deps: st.Deps}
		}
		if _, err := s.newGraphJob(graphs[gi]); err != nil {
			return 0, fmt.Errorf("online: restore graph %d: %w", gi, err)
		}
	}
	// Re-arm breaker state before any submit, so restored work immediately
	// avoids the processors that were unhealthy at capture time (no-op for
	// breaker-less schedulers).
	for p, sb := range sn.Breakers {
		s.restoreBreaker(p, sb)
	}
	n := 0
	for _, t := range tasks {
		if _, err := s.SubmitCtx(ctx, t); err != nil {
			return n, fmt.Errorf("online: restore %q: %w", t.Name, err)
		}
		n++
	}
	for gi, gts := range graphs {
		if _, err := s.SubmitGraph(gts); err != nil {
			return n, fmt.Errorf("online: restore graph %d: %w", gi, err)
		}
		n += len(gts)
	}
	return n, nil
}
