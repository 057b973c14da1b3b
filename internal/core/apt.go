// Package core implements the thesis's contribution: the Alternative
// Processor within Threshold (APT) scheduling heuristic (paper Ch. 3,
// Algorithm 1).
//
// APT is a dynamic policy that behaves like MET — prefer the processor
// with the minimum execution time (pmin) for each kernel — but relaxes
// MET's insistence on waiting for pmin. When pmin is busy, APT may assign
// the kernel to an *alternative* processor palt, defined as
//
//	"a processor for which the addition of execution and the data
//	 transfer times is less than or equal to the policy's established
//	 threshold, and is available to execute kernel vi"
//
// with threshold = α·x (Eq. 8), where x is the kernel's execution time on
// pmin and α ≥ 1 is the flexibility factor. Small α makes APT mimic MET;
// large α trades per-kernel optimality for lower waiting, which pays off
// until the alternative processors become too slow (the paper's "valley"
// with its minimum at thresholdbrk, α = 4 on the paper's system).
//
// The package also provides APT-R, the extension sketched in the thesis's
// conclusion ("in the future, we will consider the remaining execution
// time in the optimal processor before deciding whether to assign to an
// alternative processor").
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/dfg"
	"repro/internal/platform"
	"repro/internal/rule"
	"repro/internal/sim"
)

// DefaultAlpha is the flexibility factor the paper found optimal
// (thresholdbrk) for its CPU–GPU–FPGA system: α = 4.
const DefaultAlpha = 4

// APT implements sim.Policy.
type APT struct {
	// Alpha is the flexibility factor α ≥ 1 of Eq. 8. Zero selects
	// DefaultAlpha.
	Alpha float64
	// ConsiderRemaining enables the APT-R variant: before settling for an
	// alternative processor, compare the kernel's estimated finish time on
	// the alternative with its estimated finish if it instead waited for
	// pmin to drain, and wait when waiting wins. The thesis proposes this
	// as future work; benches ablate it.
	ConsiderRemaining bool

	c     *sim.Costs
	stats AltStats

	// admitted holds one bitset row per kernel, as long as free: pmin plus
	// every processor rule.Alt admits as its alternative. A ready kernel's
	// predecessors have all finished, so its prices, and with them its
	// row, stay fixed for the rest of the run; Select prices the row on the
	// kernel's first visit with pmin busy and clears it when it places the
	// kernel. So a row is non-zero exactly while its kernel waits, since
	// pmin's bit is always set. Prepare clears every row.
	admitted []uint64

	// next is the ready-log position (sim.State.ReadyLog) of the first
	// kernel Select has not visited. The visited kernels that still wait
	// sit in waiting: one list per processor of the log positions, in
	// ascending order, of the waiting kernels whose row contains it. An
	// entry whose row lost that bit belongs to a placed kernel; it is
	// stale and dropped lazily. The lists start in slices of one backing
	// array made by Prepare.
	next    int
	waiting []waitList
	backing []int32

	// Scratch reused across Select calls so steady-state scheduling is
	// allocation-free: the free processors as a bitset of ⌈P/64⌉ words,
	// and one kernel's incoming transfer times on every processor.
	free []uint64
	xfer []float64
	out  []sim.Assignment
}

// waitList is one processor's FIFO of waiting kernels' ready-log
// positions; pos[head:] are the entries not yet dropped.
type waitList struct {
	pos  []int32
	head int
}

// minWaitCap is the least capacity a processor's waiting list starts
// with.
const minWaitCap = 32

// AltStats records how often APT exercised its flexibility — the data
// behind the thesis's allocation analyses (Tables 15 and 16).
type AltStats struct {
	// Assignments counts all kernels assigned.
	Assignments int
	// AltAssignments counts kernels sent to an alternative (non-pmin)
	// processor.
	AltAssignments int
	// ByKernel counts alternative assignments per kernel name.
	ByKernel map[string]int
}

// New returns an APT policy with the given flexibility factor (0 means
// DefaultAlpha).
func New(alpha float64) *APT { return &APT{Alpha: alpha} }

// NewR returns the APT-R future-work variant with the given α.
func NewR(alpha float64) *APT { return &APT{Alpha: alpha, ConsiderRemaining: true} }

// Name implements sim.Policy.
func (a *APT) Name() string {
	if a.ConsiderRemaining {
		return "APT-R"
	}
	return "APT"
}

// Prepare implements sim.Policy.
func (a *APT) Prepare(c *sim.Costs) error {
	if a.Alpha == 0 {
		a.Alpha = DefaultAlpha
	}
	if a.Alpha < 1 {
		return fmt.Errorf("core: APT flexibility factor α must be >= 1, got %v", a.Alpha)
	}
	a.c = c
	np, n := c.System().NumProcs(), c.Graph().NumKernels()
	words := (np + 63) / 64
	a.free = resize(a.free, words)
	a.xfer = resize(a.xfer, np)
	a.admitted = resize(a.admitted, n*words)
	a.next = 0
	// Each list starts with an equal share of one backing array and only
	// grows, by append, once it is full of waiting kernels.
	per := max(minWaitCap, n/np)
	a.backing = resize(a.backing, np*per)
	a.waiting = resize(a.waiting, np)
	for p := range a.waiting {
		a.waiting[p] = waitList{pos: a.backing[p*per : p*per : (p+1)*per]}
	}
	// Reuse the per-kernel map across Prepare calls so re-running a pooled
	// policy instance does not allocate; Stats() hands out copies.
	byKernel := a.stats.ByKernel
	if byKernel == nil {
		byKernel = map[string]int{}
	} else {
		clear(byKernel)
	}
	a.stats = AltStats{ByKernel: byKernel}
	return nil
}

// Stats returns the allocation statistics accumulated since Prepare.
func (a *APT) Stats() AltStats {
	out := a.stats
	out.ByKernel = make(map[string]int, len(a.stats.ByKernel))
	for k, v := range a.stats.ByKernel { //lint:ordered — per-key map copy; writes are independent
		out.ByKernel[k] = v
	}
	return out
}

// Select implements sim.Policy, following Algorithm 1: every ready kernel,
// in first-come-first-serve order, is assigned to pmin when pmin is
// available; otherwise to the cheapest available alternative processor
// within the threshold; otherwise it waits.
//
// The ready log lists kernels in that order, and a walk over it stops only
// once no processor is free, so the kernels visited by earlier calls that
// still wait come before every kernel not yet visited. Select therefore
// takes the visited ones first, earliest first, from the waiting lists of
// the free processors: a visited kernel whose row meets no free processor
// would wait anyway, and the free set only shrinks within a call. Then it
// visits the log from next on, as the plain walk would.
func (a *APT) Select(st *sim.State) []sim.Assignment {
	free := a.free
	clear(free)
	nFree := 0
	for p := range st.System().NumProcs() {
		if st.Available(platform.ProcID(p)) {
			free[p>>6] |= 1 << (p & 63)
			nFree++
		}
	}
	log := st.ReadyLog()
	a.out = a.out[:0]
	// from moves past every waiting kernel this call looks at, so a kernel
	// APT-R declines is skipped for the rest of this call only.
	for from := int32(0); nFree > 0; {
		i := a.earliestWaiting(log, from)
		if i < 0 {
			break
		}
		from = i + 1
		if a.visit(st, log, i) {
			nFree--
		}
	}
	for ; nFree > 0 && a.next < len(log); a.next++ {
		if a.visit(st, log, int32(a.next)) {
			nFree--
		}
	}
	return a.out
}

// visit applies Algorithm 1 to the kernel at log position i and reports
// whether it placed it. A kernel visited for the first time that waits
// joins the waiting lists of every processor in its row.
func (a *APT) visit(st *sim.State, log []dfg.KernelID, i int32) bool {
	k := log[i]
	w := len(a.free)
	row := a.admitted[int(k)*w : (int(k)+1)*w]
	pmin, x := a.c.BestProc(k)
	p := pmin
	if a.free[pmin>>6]&(1<<(pmin&63)) == 0 {
		waiting := row[pmin>>6] != 0 // priced by an earlier visit, and listed
		if !waiting {
			a.price(st, k, pmin, x, row)
		}
		if !meets(row, a.free) {
			if !waiting {
				a.enlist(log, i, row)
			}
			return false // no admitted alternative is free: wait for pmin
		}
		palt, altCost := a.findAlternative(st, k, pmin, x, row)
		if a.ConsiderRemaining && a.waitingWins(st, k, pmin, x, altCost) {
			if !waiting {
				a.enlist(log, i, row)
			}
			return false // APT-R: pmin will be free soon enough; wait
		}
		p = palt
		a.stats.AltAssignments++
		a.stats.ByKernel[st.Graph().Kernels()[k].Name]++
	}
	clear(row)
	a.free[p>>6] &^= 1 << (p & 63)
	a.stats.Assignments++
	a.out = append(a.out, sim.Assignment{Kernel: k, Proc: p})
	return true
}

// earliestWaiting returns the smallest log position at or after from of a
// waiting kernel whose row contains a free processor, or -1 if there is
// none. It drops the stale entries at the front of the lists it reads.
func (a *APT) earliestWaiting(log []dfg.KernelID, from int32) int32 {
	best := int32(-1)
	for w, word := range a.free {
		for ; word != 0; word &= word - 1 {
			p := w<<6 | bits.TrailingZeros64(word)
			l := &a.waiting[p]
			for l.head < len(l.pos) && !a.waitsIn(log, l.pos[l.head], p) {
				l.head++
			}
			if l.head == len(l.pos) {
				l.pos, l.head = l.pos[:0], 0
				continue
			}
			for _, i := range l.pos[l.head:] {
				if best >= 0 && i >= best {
					break
				}
				if i >= from && a.waitsIn(log, i, p) {
					best = i
					break
				}
			}
		}
	}
	return best
}

// waitsIn reports whether the kernel at log position i still waits in
// processor p's list: its row keeps p's bit until the kernel is placed.
func (a *APT) waitsIn(log []dfg.KernelID, i int32, p int) bool {
	return a.admitted[int(log[i])*len(a.free)+p>>6]&(1<<(p&63)) != 0
}

// enlist appends log position i to the waiting list of every processor in
// row. A full list first drops its stale entries and grows only if every
// entry left still waits, so a list's memory follows the kernels waiting
// in it, not the length of the run.
func (a *APT) enlist(log []dfg.KernelID, i int32, row []uint64) {
	for w, word := range row {
		for ; word != 0; word &= word - 1 {
			p := w<<6 | bits.TrailingZeros64(word)
			l := &a.waiting[p]
			if len(l.pos) == cap(l.pos) {
				live := l.pos[:0]
				for _, j := range l.pos[l.head:] {
					if a.waitsIn(log, j, p) {
						live = append(live, j)
					}
				}
				l.pos, l.head = live, 0
			}
			l.pos = append(l.pos, i)
		}
	}
}

// price fills kernel k's row of admitted processors: every processor at
// execution time plus incoming data transfer time, tested by rule.Alt.
func (a *APT) price(st *sim.State, k dfg.KernelID, pmin platform.ProcID, x float64, row []uint64) {
	row[pmin>>6] = 1 << (pmin & 63)
	a.c.TransferRow(k, func(pred dfg.KernelID) platform.ProcID {
		pp, _ := st.ProcOf(pred) // a ready kernel's predecessors are all placed
		return pp
	}, a.xfer)
	alt := rule.NewAlt(a.Alpha, x, int(pmin))
	for pi, e := range a.c.ExecRow(k) {
		if alt.Admits(pi, e+a.xfer[pi]) {
			row[pi>>6] |= 1 << (pi & 63)
		}
	}
}

// findAlternative implements find2ndBestProc of Algorithm 1 for the
// simulator: the candidates are the admitted processors still free in
// this batch, offered to rule.Alt in ascending ID at execution time plus
// incoming data transfer time. The caller guarantees at least one, so
// rule.Alt always chooses.
func (a *APT) findAlternative(
	st *sim.State,
	k dfg.KernelID,
	pmin platform.ProcID,
	x float64,
	row []uint64,
) (platform.ProcID, float64) {
	alt := rule.NewAlt(a.Alpha, x, int(pmin))
	for w, word := range row {
		for word &= a.free[w]; word != 0; word &= word - 1 {
			pi := w<<6 | bits.TrailingZeros64(word)
			p := platform.ProcID(pi)
			alt.Offer(pi, a.c.Exec(k, p)+a.transferTo(st, k, p))
		}
	}
	p, cost, _ := alt.Best()
	return platform.ProcID(p), cost
}

// meets reports whether row and free share a processor.
func meets(row, free []uint64) bool {
	for i, w := range row {
		if w&free[i] != 0 {
			return true
		}
	}
	return false
}

// resize returns s with n zeroed elements, reusing its backing array when
// it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// transferTo prices moving the kernel's predecessor outputs to processor p
// from wherever those predecessors ran.
func (a *APT) transferTo(st *sim.State, k dfg.KernelID, p platform.ProcID) float64 {
	return a.c.TransferIn(k, p, func(pred dfg.KernelID) platform.ProcID {
		if pp, ok := st.ProcOf(pred); ok {
			return pp
		}
		return p // ready kernels have placed predecessors; defensive default
	})
}

// waitingWins estimates, for APT-R, whether waiting for pmin finishes the
// kernel earlier than taking the alternative now.
func (a *APT) waitingWins(st *sim.State, k dfg.KernelID, pmin platform.ProcID, x, altCost float64) bool {
	wait := st.BusyUntil(pmin) - st.Now()
	if wait < 0 {
		wait = 0
	}
	finishIfWait := wait + a.transferTo(st, k, pmin) + x
	return finishIfWait <= altCost
}
