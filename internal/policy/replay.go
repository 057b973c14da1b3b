package policy

import (
	"fmt"

	"repro/internal/sim"
)

// Replay re-executes a previously recorded schedule's placement decisions:
// each kernel goes to the processor it ran on before, in the recorded
// per-processor order, while the engine recomputes all timing. This
// enables what-if analysis — replay an APT schedule at a different link
// rate, under another transfer mode, or against perturbed actual costs —
// isolating the effect of the environment from the effect of the
// decisions.
type Replay struct {
	// Source is the recorded run to replay.
	Source *sim.Result

	plan staticPlan
}

// NewReplay returns a policy replaying the placements of a finished run.
func NewReplay(source *sim.Result) *Replay { return &Replay{Source: source} }

// Name implements sim.Policy.
func (rp *Replay) Name() string {
	if rp.Source != nil && rp.Source.Policy != "" {
		return "Replay(" + rp.Source.Policy + ")"
	}
	return "Replay"
}

// Prepare implements sim.Policy.
func (rp *Replay) Prepare(c *sim.Costs) error {
	if rp.Source == nil {
		return fmt.Errorf("policy: Replay requires a source result")
	}
	n := c.Graph().NumKernels()
	if len(rp.Source.Placements) != n {
		return fmt.Errorf("policy: replay source has %d placements for %d kernels",
			len(rp.Source.Placements), n)
	}
	np := c.System().NumProcs()
	tasks := make([]plannedTask, 0, n)
	for _, pl := range rp.Source.Placements {
		if int(pl.Proc) < 0 || int(pl.Proc) >= np {
			return fmt.Errorf("policy: replay source places kernel %d on unknown processor %d",
				pl.Kernel, pl.Proc)
		}
		tasks = append(tasks, plannedTask{
			kernel: pl.Kernel,
			proc:   pl.Proc,
			// Recorded start times define the per-processor replay order.
			start:  pl.TransferStart,
			finish: pl.Finish,
		})
	}
	rp.plan.set(tasks)
	return nil
}

// Select implements sim.Policy.
func (rp *Replay) Select(*sim.State) []sim.Assignment { return rp.plan.release() }
