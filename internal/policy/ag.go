package policy

import (
	"math"

	"repro/internal/dfg"
	"repro/internal/platform"
	"repro/internal/sim"
)

// AG implements the adaptive greedy policy of Wu et al. (paper §2.5.3,
// Eq. 1–2), generalised from their CPU+GPU system to arbitrary
// heterogeneous platforms as the thesis does. Every ready kernel is
// assigned immediately to the device g with the lowest estimated total
// waiting time
//
//	τ_g = τ_g^q + τ_g^d
//
// where the queueing delay τ_g^q = N_g · τ_g^k is the number of kernel
// calls queued on g times the average execution time of the last
// sim.ExecWindow (10) kernel calls completed on g (Eq. 2), and τ_g^d is
// the time to transfer the kernel's input data from its predecessors'
// processors to g.
//
// AG optimises waiting, not computation: it happily sends a kernel to a
// processor that is orders of magnitude slower if that processor's queue
// is short, which on highly heterogeneous systems produces very long
// makespans (the paper's Tables 8–10 show AG last by a wide margin).
type AG struct {
	c *sim.Costs

	ready   []dfg.KernelID
	extraMs []float64
	out     []sim.Assignment
}

// NewAG returns an AG policy.
func NewAG() *AG { return &AG{} }

// Name implements sim.Policy.
func (a *AG) Name() string { return "AG" }

// Prepare implements sim.Policy.
func (a *AG) Prepare(c *sim.Costs) error {
	a.c = c
	return nil
}

// Select implements sim.Policy: every ready kernel is committed right away
// to the processor minimising estimated wait; queue growth from this very
// batch feeds back into later estimates via extraQueued.
func (a *AG) Select(st *sim.State) []sim.Assignment {
	np := st.System().NumProcs()
	if cap(a.extraMs) < np {
		a.extraMs = make([]float64, np)
	}
	extraMs := a.extraMs[:np]
	clear(extraMs)
	a.ready = st.AppendReady(a.ready[:0])
	out := a.out[:0]
	for _, k := range a.ready {
		bestP := platform.ProcID(-1)
		bestTau := math.Inf(1)
		for p := 0; p < np; p++ {
			pid := platform.ProcID(p)
			tau := a.waitEstimate(st, k, pid) + extraMs[p]
			if tau < bestTau {
				bestTau, bestP = tau, pid
			}
		}
		out = append(out, sim.Assignment{Kernel: k, Proc: bestP})
		extraMs[bestP] += a.execOrRecent(st, k, bestP)
	}
	a.out = out
	return out
}

// waitEstimate computes τ_g for kernel k on processor p per Eq. 1–2.
func (a *AG) waitEstimate(st *sim.State, k dfg.KernelID, p platform.ProcID) float64 {
	// N_g: kernel calls pending on p — its queue plus the running slot.
	ng := st.QueueLen(p)
	if !st.Available(p) {
		ng++
	}
	tauK := st.RecentExecAvg(p)
	if tauK == 0 {
		// Bootstrapping deviation (documented): before any completion on p
		// there is no history to average, so use the candidate kernel's own
		// estimated execution time on p instead of zero, which would make
		// all processors look instantly free.
		tauK = a.c.Exec(k, p)
	}
	tauQ := float64(ng) * tauK
	tauD := a.c.TransferIn(k, p, func(pred dfg.KernelID) platform.ProcID {
		if pp, ok := st.ProcOf(pred); ok {
			return pp
		}
		return p // unplaced predecessor: no transfer charged
	})
	return tauQ + tauD
}

func (a *AG) execOrRecent(st *sim.State, k dfg.KernelID, p platform.ProcID) float64 {
	if avg := st.RecentExecAvg(p); avg > 0 {
		return avg
	}
	return a.c.Exec(k, p)
}
