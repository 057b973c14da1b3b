package sim

// arena slab-allocates the per-run records that escape into Results: the
// Placements and the start log. One Run carves one block of each; blocks
// are disjoint sub-slices of a shared slab, so a Result's records stay
// valid for its lifetime while the arena moves on to the next run. Nothing
// is ever recycled in place: when a slab fills up the arena simply starts
// a new one, and the old slab is freed wholesale by the GC once the last
// Result holding a block of it is dropped. That turns per-run allocation —
// the dominant escaping allocation of small-graph sweeps — into one
// amortised allocation per arenaMaxSlab records, with zero per-kernel
// bookkeeping and no risk of aliasing a live Result.
//
// Slab sizing is adaptive: the first slab is exactly the requested block, so
// a one-shot Runner pays the same single allocation it would without an
// arena, and each refill doubles the previous capacity up to arenaMaxSlab.
// Warm Runners therefore converge on one allocation per arenaMaxSlab
// records (~1 MiB of Placements, 64 KiB of start log), while cold or
// million-kernel runs never over-reserve.
type arena[T any] struct {
	slab []T
}

// arenaMaxSlab caps slab growth in records (16384): big enough to amortise
// sweep-style workloads, small enough that a retained Result pins at most
// one slab of overhead.
const arenaMaxSlab = 1 << 14

// alloc returns a zeroed n-record block. The block is full-sliced so caller
// appends can never spill into a neighbouring run's records.
func (a *arena[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	if n >= arenaMaxSlab/2 {
		// Blocks this large fit at most once per slab, so sharing would only
		// strand the slab's tail (a 10k-record run would waste 39% of every
		// 16k slab). A private, exactly-sized block is the same single
		// allocation with zero waste, and leaves the shared slab untouched
		// for subsequent small runs.
		return make([]T, n)
	}
	if cap(a.slab)-len(a.slab) < n {
		size := 2 * cap(a.slab)
		if size > arenaMaxSlab {
			size = arenaMaxSlab
		}
		if size < n {
			size = n
		}
		// Fresh slabs are zeroed by make and every record is handed out
		// exactly once, so blocks need no clearing here.
		a.slab = make([]T, 0, size)
	}
	lo := len(a.slab)
	a.slab = a.slab[:lo+n]
	return a.slab[lo : lo+n : lo+n]
}
