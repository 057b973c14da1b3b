package sim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dfg"
)

// These tests attack the engine with misbehaving and pathological policies
// to pin down its failure semantics.

// partialPolicy assigns only every other ready kernel per call.
type partialPolicy struct{ flip bool }

func (p *partialPolicy) Name() string         { return "partial" }
func (p *partialPolicy) Prepare(*Costs) error { return nil }
func (p *partialPolicy) Select(st *State) []Assignment {
	var out []Assignment
	procs := st.AppendAvailableProcs(nil)
	pi := 0
	for i, k := range st.AppendReady(nil) {
		if (i+boolToInt(p.flip))%2 == 0 && pi < len(procs) {
			out = append(out, Assignment{Kernel: k, Proc: procs[pi]})
			pi++
		}
	}
	p.flip = !p.flip
	return out
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestPartialAssignmentStillCompletes(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	for i := 0; i < 9; i++ {
		b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	}
	g := b.MustBuild()
	res, err := Run(mustCosts(t, g, env), &partialPolicy{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(g, env.sys); err != nil {
		t.Error(err)
	}
}

// hoarder piles every kernel onto processor 0 regardless of readiness
// (static-style bulk commitment).
type hoarder struct{ done bool }

func (h *hoarder) Name() string         { return "hoarder" }
func (h *hoarder) Prepare(*Costs) error { h.done = false; return nil }
func (h *hoarder) Select(st *State) []Assignment {
	if h.done {
		return nil
	}
	h.done = true
	var out []Assignment
	for i := 0; i < st.Graph().NumKernels(); i++ {
		out = append(out, Assignment{Kernel: dfg.KernelID(i), Proc: 0})
	}
	return out
}

func TestHoarderSerializesEverything(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	k0 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000}) // CPU 10
	k1 := b.AddKernel(dfg.Kernel{Name: "b", DataElems: 1000}) // CPU 4
	b.AddEdge(k0, k1)
	g := b.MustBuild()
	res, err := Run(mustCosts(t, g, env), &hoarder{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanMs != 14 {
		t.Errorf("makespan = %v, want 14 (10+4 on one CPU)", res.MakespanMs)
	}
	if res.ProcStats[0].Kernels != 2 {
		t.Errorf("proc 0 ran %d kernels, want 2", res.ProcStats[0].Kernels)
	}
}

// reverseHoarder queues a dependent chain in reverse order onto one
// processor: the queue head then permanently waits on a kernel stuck
// behind it — the engine must report the deadlock instead of hanging.
type reverseHoarder struct{ done bool }

func (h *reverseHoarder) Name() string         { return "reverse-hoarder" }
func (h *reverseHoarder) Prepare(*Costs) error { h.done = false; return nil }
func (h *reverseHoarder) Select(st *State) []Assignment {
	if h.done {
		return nil
	}
	h.done = true
	n := st.Graph().NumKernels()
	var out []Assignment
	for i := n - 1; i >= 0; i-- {
		out = append(out, Assignment{Kernel: dfg.KernelID(i), Proc: 0})
	}
	return out
}

func TestReverseQueueDeadlockDetected(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	k0 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	k1 := b.AddKernel(dfg.Kernel{Name: "b", DataElems: 1000})
	b.AddEdge(k0, k1)
	g := b.MustBuild()
	_, err := Run(mustCosts(t, g, env), &reverseHoarder{}, Options{})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock report", err)
	}
}

// lazyPolicy assigns nothing until the clock passes a trigger, then acts
// greedily — exercising repeated no-op Select calls with pending events.
type lazyPolicy struct {
	trigger float64
	inner   greedy
}

func (l *lazyPolicy) Name() string           { return "lazy" }
func (l *lazyPolicy) Prepare(c *Costs) error { return l.inner.Prepare(c) }
func (l *lazyPolicy) Select(st *State) []Assignment {
	if st.Now() < l.trigger {
		return nil
	}
	return l.inner.Select(st)
}

func TestLazyPolicyDeadlocksOnlyWithoutEvents(t *testing.T) {
	env := tiny(t, 4)
	// Without arrivals and with nothing running, a lazy policy deadlocks
	// immediately (no event can advance the clock past its trigger).
	c := mustCosts(t, singleKernelGraph(t), env)
	if _, err := Run(c, &lazyPolicy{trigger: 5}, Options{}); err == nil {
		t.Fatal("expected deadlock without events")
	}
	// With a paced arrival beyond the trigger, the clock reaches the
	// trigger and the run completes.
	res, err := Run(c, &lazyPolicy{trigger: 5}, Options{ArrivalTimes: []float64{6}})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanMs < 6 {
		t.Errorf("makespan = %v, want >= arrival 6", res.MakespanMs)
	}
}

// Property: the engine is deterministic — identical inputs give identical
// results — and arrival pacing never reduces λ-relevant readiness below
// the unpaced run's makespan invariants.
func TestEngineDeterminismProperty(t *testing.T) {
	env := tiny(t, 8)
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%15) + 1
		b := dfg.NewBuilder()
		for i := 0; i < n; i++ {
			name := "a"
			if r.Intn(2) == 1 {
				name = "b"
			}
			b.AddKernel(dfg.Kernel{Name: name, DataElems: 1000})
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.25 {
					b.AddEdge(dfg.KernelID(u), dfg.KernelID(v))
				}
			}
		}
		g := b.MustBuild()
		c, err := PrepareCosts(g, env.sys, env.tab, CostConfig{})
		if err != nil {
			return false
		}
		r1, err1 := Run(c, &greedy{}, Options{})
		r2, err2 := Run(c, &greedy{}, Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		if r1.MakespanMs != r2.MakespanMs {
			return false
		}
		for i := range r1.Placements {
			if r1.Placements[i] != r2.Placements[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
