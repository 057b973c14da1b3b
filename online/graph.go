package online

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/dfg"
)

// ErrDependency marks a task that never ran because a predecessor failed
// (or the scheduler closed before the predecessor finished). The Result of
// such a task wraps ErrDependency.
var ErrDependency = errors.New("online: dependency failed")

// GraphTask is one node of a dependency graph submitted with SubmitGraph.
type GraphTask struct {
	Task
	// Deps lists the indices (into the SubmitGraph slice) of the tasks
	// that must finish before this one may start. Duplicates are ignored;
	// cycles are rejected at submission.
	Deps []int
}

// GraphResult reports a finished graph submission.
type GraphResult struct {
	// Results holds one Result per task, indexed like the submitted slice.
	// Tasks skipped because a dependency failed carry an error wrapping
	// ErrDependency.
	Results []Result
	// Err is the first task or scheduling error, nil when every task ran
	// cleanly.
	Err error
}

// GraphHandle tracks a submitted task graph.
type GraphHandle struct {
	// Done receives exactly one GraphResult when every task has finished
	// or been skipped.
	Done <-chan GraphResult
}

// graphJob tracks one in-flight graph: the CSR adjacency drives successor
// release and indeg the readiness frontier — the same machinery as the
// simulator's heap-Kahn topological order, except releases happen on real
// completions instead of simulated ones.
type graphJob struct {
	s     *Scheduler
	g     *dfg.Graph
	id    uint64 // registry key; see Scheduler.graphs
	tasks []*liveTask
	done  chan GraphResult

	mu      sync.Mutex
	results []Result
	indeg   []int32
	failed  []bool // a predecessor (transitively) failed
	settled []bool // result recorded (finished, failed or skipped)
	remain  int
	err     error
}

// SubmitGraph admits a whole dependency graph: entry tasks are submitted
// immediately and every other task is released the moment its last
// predecessor finishes, so independent branches overlap across processors
// while the APT rule decides each placement. Releases bypass the admission
// queue bound — an admitted graph is never half-rejected.
//
// If a task fails, its transitive dependents are skipped with an error
// wrapping ErrDependency and the handle still completes. Tasks are
// validated (estimates, dependency indices, acyclicity) before anything is
// submitted; on error nothing runs.
func (s *Scheduler) SubmitGraph(tasks []GraphTask) (*GraphHandle, error) {
	if s.closed.Load() || s.draining.Load() {
		return nil, ErrClosed
	}
	if !s.started.Load() {
		return nil, fmt.Errorf("online: SubmitGraph before Start")
	}
	job, err := s.newGraphJob(tasks)
	if err != nil {
		return nil, err
	}
	// Register before the first release: a snapshot taken mid-submission
	// must see the job, or its not-yet-finished tasks would be lost.
	s.graphRegister(job)

	// Release the entry frontier; sequence stamps are assigned in ID
	// order, so simultaneous entries keep a deterministic queue order.
	for _, id := range job.g.Entries() {
		job.release(int(id))
	}
	return &GraphHandle{Done: job.done}, nil
}

// newGraphJob validates and prepares a graph without admitting any task.
func (s *Scheduler) newGraphJob(tasks []GraphTask) (*graphJob, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("online: empty graph")
	}
	// Build the dependency DAG with the shared data layer: the Builder's
	// sort+dedup pass produces CSR adjacency and verifies acyclicity via
	// the same heap-Kahn topological order the simulator relies on.
	b := dfg.NewBuilder()
	for i, t := range tasks {
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("task-%d", i)
		}
		b.AddKernel(dfg.Kernel{Name: name, DataElems: 1})
	}
	for i, t := range tasks {
		for _, d := range t.Deps {
			if d < 0 || d >= len(tasks) {
				return nil, fmt.Errorf("online: task %d dependency %d out of range [0,%d)", i, d, len(tasks))
			}
			b.AddEdge(dfg.KernelID(d), dfg.KernelID(i))
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("online: invalid task graph: %w", err)
	}

	n := len(tasks)
	job := &graphJob{
		s:       s,
		g:       g,
		tasks:   make([]*liveTask, n),
		done:    make(chan GraphResult, 1),
		results: make([]Result, n),
		indeg:   make([]int32, n),
		failed:  make([]bool, n),
		settled: make([]bool, n),
		remain:  n,
	}
	for i := range tasks {
		i := i
		lt, err := s.prepare(tasks[i].Task, func(res Result) { job.taskDone(i, res) })
		if err != nil {
			return nil, err
		}
		job.tasks[i] = lt
		job.indeg[i] = int32(g.InDegree(dfg.KernelID(i)))
	}
	return job, nil
}

// graphRegister tracks an in-flight graph job for Snapshot.
func (s *Scheduler) graphRegister(j *graphJob) {
	s.graphs.mu.Lock()
	s.graphs.next++
	j.id = s.graphs.next
	s.graphs.m[j.id] = j
	s.graphs.mu.Unlock()
}

// graphUnregister drops a completed job from the registry.
func (s *Scheduler) graphUnregister(id uint64) {
	s.graphs.mu.Lock()
	delete(s.graphs.m, id)
	s.graphs.mu.Unlock()
}

// graphJobs returns the in-flight jobs in submission order.
func (s *Scheduler) graphJobs() []*graphJob {
	s.graphs.mu.Lock()
	jobs := make([]*graphJob, 0, len(s.graphs.m))
	for _, j := range s.graphs.m {
		jobs = append(jobs, j)
	}
	s.graphs.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].id < jobs[b].id })
	return jobs
}

// release admits one ready task. Scheduling errors (scheduler closed) are
// folded into the task's result so the graph always completes.
func (j *graphJob) release(i int) {
	if err := j.s.submitTask(j.tasks[i], true); err != nil {
		j.taskDone(i, Result{Task: j.tasks[i].task, Proc: -1, Err: err})
	}
}

// taskDone records one finished (or skipped) task and releases every
// successor whose last dependency this completion satisfied. It runs on
// the finishing worker's goroutine; releases and skip propagation happen
// outside the job lock, so a release that fails synchronously (scheduler
// closing) can re-enter taskDone without deadlock.
func (j *graphJob) taskDone(i int, res Result) {
	j.mu.Lock()
	j.results[i] = res
	j.settled[i] = true
	j.remain--
	if res.Err != nil {
		j.failed[i] = true
		if j.err == nil {
			j.err = fmt.Errorf("online: task %d (%q): %w", i, j.tasks[i].task.Name, res.Err)
		}
	}
	var ready, skipped []int
	for _, succ := range j.g.Succs(dfg.KernelID(i)) {
		if j.failed[i] {
			j.failed[succ] = true
		}
		j.indeg[succ]--
		if j.indeg[succ] == 0 {
			if j.failed[succ] {
				skipped = append(skipped, int(succ))
			} else {
				ready = append(ready, int(succ))
			}
		}
	}
	finished := j.remain == 0
	j.mu.Unlock()

	for _, succ := range ready {
		j.release(succ)
	}
	for _, succ := range skipped {
		j.taskDone(succ, Result{
			Task: j.tasks[succ].task,
			Proc: -1,
			Err:  fmt.Errorf("%w (dependency of task %d unmet)", ErrDependency, succ),
		})
	}
	if finished {
		j.s.graphUnregister(j.id)
		j.done <- GraphResult{Results: j.results, Err: j.err}
	}
}

// snapshotFrontier serialises the job's unfinished portion: every node not
// yet settled and not marked by a failed predecessor, with dependency
// edges remapped to the surviving subset. Edges to already-finished
// predecessors are dropped — their completion is the fact the snapshot
// preserves. Returns false when nothing remains to carry over.
func (j *graphJob) snapshotFrontier() (SnapshotGraph, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.remain == 0 {
		return SnapshotGraph{}, false
	}
	idx := make(map[int]int, j.remain)
	var keep []int
	for i := range j.tasks {
		if !j.settled[i] && !j.failed[i] {
			idx[i] = len(keep)
			keep = append(keep, i)
		}
	}
	if len(keep) == 0 {
		return SnapshotGraph{}, false
	}
	sg := SnapshotGraph{Tasks: make([]SnapshotTask, len(keep))}
	for out, i := range keep {
		var deps []int
		for _, p := range j.g.Preds(dfg.KernelID(i)) {
			if np, ok := idx[int(p)]; ok {
				deps = append(deps, np)
			}
		}
		sg.Tasks[out] = snapTask(&j.tasks[i].task, deps, int(j.tasks[i].attempt.Load()))
	}
	return sg, true
}
