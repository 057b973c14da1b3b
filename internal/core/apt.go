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
	// kernel's first visit with pmin busy. An all-zero row is not priced
	// yet, since pmin's bit is always set. Prepare clears every row.
	admitted []uint64

	// Scratch reused across Select calls so steady-state scheduling is
	// allocation-free: the ready list and the free processors as a bitset
	// of ⌈P/64⌉ words.
	ready []dfg.KernelID
	free  []uint64
	out   []sim.Assignment
}

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
	words := (c.System().NumProcs() + 63) / 64
	a.free = resize(a.free, words)
	a.admitted = resize(a.admitted, c.Graph().NumKernels()*words)
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
// within the threshold; otherwise it waits. A priced kernel none of whose
// admitted processors is free is skipped after one AND per word.
func (a *APT) Select(st *sim.State) []sim.Assignment {
	free, w := a.free, len(a.free)
	clear(free)
	nFree := 0
	for p := range st.System().NumProcs() {
		if st.Available(platform.ProcID(p)) {
			free[p>>6] |= 1 << (p & 63)
			nFree++
		}
	}
	a.ready = st.AppendReady(a.ready[:0])
	out := a.out[:0]
	for _, k := range a.ready {
		if nFree == 0 {
			break
		}
		row := a.admitted[int(k)*w : (int(k)+1)*w]
		if blocked(row, free) {
			continue // wait for pmin
		}
		pmin, x := a.c.BestProc(k)
		p := pmin
		if free[pmin>>6]&(1<<(pmin&63)) == 0 {
			a.price(st, k, pmin, x, row)
			if blocked(row, free) {
				continue // no admitted alternative is free: wait for pmin
			}
			palt, altCost := a.findAlternative(st, k, pmin, x, row)
			if a.ConsiderRemaining && a.waitingWins(st, k, pmin, x, altCost) {
				continue // APT-R: pmin will be free soon enough; wait
			}
			p = palt
			a.stats.AltAssignments++
			a.stats.ByKernel[st.Graph().Kernel(k).Name]++
		}
		free[p>>6] &^= 1 << (p & 63)
		nFree--
		a.stats.Assignments++
		out = append(out, sim.Assignment{Kernel: k, Proc: p})
	}
	a.out = out
	return out
}

// price fills kernel k's row of admitted processors unless it is priced
// already: every processor at execution time plus incoming data transfer
// time, tested by rule.Alt.
func (a *APT) price(st *sim.State, k dfg.KernelID, pmin platform.ProcID, x float64, row []uint64) {
	if row[pmin>>6] != 0 {
		return
	}
	row[pmin>>6] = 1 << (pmin & 63)
	alt := rule.NewAlt(a.Alpha, x, int(pmin))
	for pi := range st.System().NumProcs() {
		p := platform.ProcID(pi)
		if alt.Admits(pi, a.c.Exec(k, p)+a.transferTo(st, k, p)) {
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

// blocked reports whether a priced row has no free processor. An
// unpriced row, all zero, is never blocked.
func blocked(row, free []uint64) bool {
	priced := false
	for i, w := range row {
		if w&free[i] != 0 {
			return false
		}
		priced = priced || w != 0
	}
	return priced
}

// resize returns s with n zeroed words, reusing its backing array when it
// is large enough.
func resize(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
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
