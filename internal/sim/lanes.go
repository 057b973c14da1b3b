package sim

import (
	"runtime"
	"sync"
)

// Lane scheduling for the partitioned phases.
//
// A "lane" is one worker goroutine of a single run. Lanes never touch the
// event trajectory — the discrete-event loop is inherently sequential
// because policies observe global state (ready set, processor availability)
// at every decision point, so any reordering would change the schedule
// itself. What lanes do parallelise are the trajectory-independent phases
// that measurably win from it: cost-table preparation (per-shape rows are
// independent), schedule validation (per-kernel lifecycle checks and
// per-processor occupancy scans) and the public result conversion in apt.
// The lane count is not a knob: autoLanes derives it from the number of
// items a phase covers (shape rows or kernels) and GOMAXPROCS, so small
// graphs stay on the serial, goroutine-free path.
//
// # Determinism invariant
//
// Every lane-parallel phase must produce byte-identical output for every
// lane count, including 1 (the serial path). Two rules enforce that:
//
//  1. Lanes only write to disjoint index ranges of preallocated slices —
//     concatenation in chunk order then equals the serial fill, because
//     chunks tile [0, n) ascending and within-chunk order is index order.
//  2. Floating-point reductions (λ totals, per-processor time sums) stay on
//     one goroutine in kernel-ID order: float addition does not
//     reassociate, so chunked partial sums would drift by an ulp and break
//     byte-identity with the serial path. Integer reductions and float
//     max/min are exact and may be merged per lane.
//
// The reducer side is sequence-stamped: laneChunks fixes each chunk's
// [lo, hi) span up front, every lane tags its partial output with the chunk
// index it covers, and merges always run in ascending chunk order on the
// caller's goroutine.
type laneChunk struct {
	lane   int // sequence stamp: chunk index in [0, lanes)
	lo, hi int // half-open index span
}

// minKernelsPerLane is the smallest per-lane share of kernels worth a
// goroutine. Measured on a 2-vCPU Xeon, two lanes lose to one in
// validation at 1k kernels, run level to 15% faster at 10k and win clearly
// from 30k, while cost preparation (then one row per kernel) won at every
// size; ~2k kernels per lane keeps the paper's 46–157-kernel graphs serial
// and gives a 10k-kernel run two lanes (see ARCHITECTURE.md "What was
// removed and why").
const minKernelsPerLane = 2048

// autoLanes is the lane count for a phase over n kernels (or n shape rows,
// in cost preparation): one lane per minKernelsPerLane items, at least 1
// and at most GOMAXPROCS.
func autoLanes(n int) int {
	return max(1, min(n/minKernelsPerLane, runtime.GOMAXPROCS(0)))
}

// clampLanes limits a lane count to [1, n]: never more lanes than items.
func clampLanes(lanes, n int) int { return max(1, min(lanes, n)) }

// laneChunks splits [0, n) into `lanes` contiguous chunks differing in
// length by at most one, each stamped with its sequence index.
func laneChunks(n, lanes int) []laneChunk {
	lanes = clampLanes(lanes, n)
	chunks := make([]laneChunk, lanes)
	q, r := n/lanes, n%lanes
	lo := 0
	for i := range chunks {
		hi := lo + q
		if i < r {
			hi++
		}
		chunks[i] = laneChunk{lane: i, lo: lo, hi: hi}
		lo = hi
	}
	return chunks
}

// parallelChunks runs fn over the stamped chunks of [0, n), one goroutine
// per chunk, and blocks until all lanes finish. With one lane (or tiny n)
// it calls fn inline — the serial path is exactly the lanes=1 case, not a
// separate code path. fn must confine its writes to the chunk's span (or to
// per-lane state indexed by the sequence stamp).
func parallelChunks(n, lanes int, fn func(c laneChunk)) {
	if n <= 0 {
		return
	}
	if clampLanes(lanes, n) == 1 {
		// Serial fast path: no chunk slice, no goroutines, no allocation.
		fn(laneChunk{lane: 0, lo: 0, hi: n})
		return
	}
	chunks := laneChunks(n, lanes)
	var wg sync.WaitGroup
	wg.Add(len(chunks) - 1)
	for _, c := range chunks[1:] {
		go func(c laneChunk) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	fn(chunks[0])
	wg.Wait()
}

// ParallelOver shards [0, n) across autoLanes(n) contiguous chunks and runs
// fn on each, blocking until all finish (below the lane threshold fn runs
// inline over the whole range). It exposes the lane scheduler to
// result-assembly code outside this package; fn must confine its writes to
// [lo, hi), which keeps the concatenated output byte-identical to a serial
// fill.
func ParallelOver(n int, fn func(lo, hi int)) {
	parallelChunks(n, autoLanes(n), func(c laneChunk) { fn(c.lo, c.hi) })
}

// laneError is one lane's first failure, stamped with the global index it
// occurred at so the merged error is the lowest-index one — the same error
// the serial scan would have reported, for any lane count.
type laneError struct {
	at  int
	err error
}

// firstLaneError merges per-lane failures deterministically: the error with
// the smallest stamp wins; entries with nil err are ignored.
func firstLaneError(errs []laneError) error {
	best := -1
	for i := range errs {
		if errs[i].err == nil {
			continue
		}
		if best < 0 || errs[i].at < errs[best].at {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return errs[best].err
}
