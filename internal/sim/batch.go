package sim

import (
	"context"
	"runtime"
	"sync"
)

// Worker is the per-goroutine state RunPool hands to its callback: a
// reusable Runner plus a bounded memo space for prepared artifacts — cost
// oracles, policy instances — that the caller wants to share across the
// runs one worker executes. Workers are confined to their goroutine, so
// the memo needs no locking; cached values must themselves be safe to
// reuse sequentially (a *Costs is immutable, a Policy re-Prepares per run).
type Worker struct {
	runner *Runner
	memo   map[any]any
	order  []any // insertion order, for FIFO eviction
}

// workerMemoCap bounds each worker's memo so sweeps over many distinct
// graphs cannot pin an unbounded number of large prepared cost tables.
// Eviction is FIFO, which preserves determinism (results never depend on
// cache hits — only speed does).
const workerMemoCap = 64

// Runner returns the worker's reusable simulation engine.
func (w *Worker) Runner() *Runner { return w.runner }

// Memo returns the value cached under key, calling build and caching its
// result on a miss. Keys must be comparable; errors are never cached.
// Consecutive runs that share prepared state (the same cost oracle, the
// same policy instance) retrieve it here instead of rebuilding per run —
// the prepared-policy fast path of batch, stream and robustness sweeps.
func (w *Worker) Memo(key any, build func() (any, error)) (any, error) {
	if v, ok := w.memo[key]; ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	if w.memo == nil {
		w.memo = make(map[any]any, workerMemoCap)
	}
	if len(w.order) >= workerMemoCap {
		delete(w.memo, w.order[0])
		w.order = w.order[1:]
	}
	w.memo[key] = v
	w.order = append(w.order, key)
	return v, nil
}

// RunPool dispatches indices 0..n-1 across a bounded pool of workers, each
// owning a reusable Runner (plus a prepared-artifact memo, see Worker), and
// collects fn's error per index. It is the fan-out primitive under
// apt.RunBatch, and the only place this package starts goroutines: one
// run — cost preparation, simulation, validation — is sequential, so
// callers put their whole per-item pipeline inside fn and parallelism
// comes from running many items at once.
//
// Once the context is cancelled, undispatched indices receive ctx.Err()
// without fn being called; in-flight calls complete. The returned slice
// has one entry per index (nil on success).
func RunPool(ctx context.Context, n, workers int, fn func(i int, w *Worker) error) []error {
	if ctx == nil {
		ctx = context.Background()
	}
	errs := make([]error, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := &Worker{runner: NewRunner()}
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = fn(i, wk)
			}
		}()
	}
	wg.Wait()
	return errs
}
