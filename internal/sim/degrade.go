package sim

import (
	"fmt"
	"math"

	"repro/internal/dfg"
	"repro/internal/platform"
)

// Degradation injects dynamic platform degradation into the engine's
// actual-time path: execution and transfer durations stretch under
// time-varying speed factors while policies keep pricing with their static
// estimates (they never observe the degradation directly — only its
// consequences, through completion times and RecentExecAvg history).
//
// Both methods describe piecewise-constant speeds: the returned speed holds
// from at until the returned horizon (+Inf when nothing further changes),
// so the engine can integrate durations exactly by walking the
// breakpoints. Speeds are relative and must stay in [0, 1]: 1 is nominal,
// 0.5 half speed, 0 stopped (a speed above 1 could finish work faster than
// the nominal best and break the λ >= 0 invariant Validate enforces).
// Implementations must be deterministic, pure and safe for
// concurrent use (batch workers share one Degradation across runs);
// offline (speed-0) stretches must end — a speed of 0 holding forever
// deadlocks the affected work and surfaces as a Run error.
//
// perturb.Schedule is the canonical implementation.
type Degradation interface {
	// ExecSpeed returns processor p's execution speed at time at and the
	// time until which that speed holds.
	ExecSpeed(p platform.ProcID, at float64) (speed, until float64)
	// LinkSpeed returns the relative bandwidth of the link from -> to at
	// time at and the time until which it holds.
	LinkSpeed(from, to platform.ProcID, at float64) (speed, until float64)
}

// elapseMaxSteps bounds the breakpoint walk of one duration integration; a
// schedule needing more segments than this for a single kernel is treated
// as pathological rather than looping forever.
const elapseMaxSteps = 1 << 20

// elapseExec returns the completion time of nominal ms of execution work
// started at time at on processor p under the degradation's time-varying
// speed.
func elapseExec(d Degradation, p platform.ProcID, nominal, at float64) (float64, error) {
	t, remaining := at, nominal
	for step := 0; remaining > 0; step++ {
		if step >= elapseMaxSteps {
			return 0, fmt.Errorf("sim: degradation schedule for proc %d produced over %d speed segments", p, elapseMaxSteps)
		}
		speed, until := d.ExecSpeed(p, t)
		var err error
		t, remaining, err = advance(t, remaining, speed, until)
		if err != nil {
			return 0, fmt.Errorf("sim: proc %d: %w", p, err)
		}
		if remaining <= 0 {
			return t, nil
		}
	}
	return t, nil
}

// elapseTransfer returns the completion time of nominal ms of transfer work
// from -> to started at time at. The effective speed is the link's
// bandwidth factor gated by the destination being online: an offline
// processor cannot receive data.
func elapseTransfer(d Degradation, from, to platform.ProcID, nominal, at float64) (float64, error) {
	t, remaining := at, nominal
	for step := 0; remaining > 0; step++ {
		if step >= elapseMaxSteps {
			return 0, fmt.Errorf("sim: degradation schedule for link %d->%d produced over %d speed segments", from, to, elapseMaxSteps)
		}
		speed, until := d.LinkSpeed(from, to, t)
		procSpeed, procUntil := d.ExecSpeed(to, t)
		if procUntil < until {
			until = procUntil
		}
		if procSpeed <= 0 {
			speed = 0
		}
		var err error
		t, remaining, err = advance(t, remaining, speed, until)
		if err != nil {
			return 0, fmt.Errorf("sim: link %d->%d: %w", from, to, err)
		}
		if remaining <= 0 {
			return t, nil
		}
	}
	return t, nil
}

// advance consumes one constant-speed segment: given remaining nominal work
// at time t under speed valid until the horizon, it returns the new time
// and the work left (<= 0 when the work completed within the segment).
func advance(t, remaining, speed, until float64) (float64, float64, error) {
	// The contract bounds speeds to [0, 1]: above 1, work could finish
	// faster than the nominal best and silently corrupt λ (Lambda() goes
	// negative and the result() filter would drop it without a trace).
	if speed < 0 || speed > 1 || math.IsNaN(speed) {
		return 0, 0, fmt.Errorf("degradation returned invalid speed %v at t=%v (must be in [0, 1])", speed, t)
	}
	if speed > 0 {
		need := remaining / speed
		if math.IsInf(until, 1) || t+need <= until {
			return t + need, 0, nil
		}
		remaining -= (until - t) * speed
	} else if math.IsInf(until, 1) {
		return 0, 0, fmt.Errorf("work stalls forever (speed 0 from t=%v with no end)", t)
	}
	if until <= t {
		return 0, 0, fmt.Errorf("degradation speed horizon did not advance past t=%v", t)
	}
	return until, remaining, nil
}

// transferFinish integrates kernel k's incoming transfers onto processor p
// starting at time at under the engine's degradation, combining
// predecessors per the configured TransferMode: concurrent transfers
// (TransferMax) each start at at and the slowest finish wins; serialized
// transfers (TransferSum) run back to back in predecessor order.
func (e *engine) transferFinish(k dfg.KernelID, p platform.ProcID, at float64) (float64, error) {
	d := e.opt.Degrade
	g := e.actual.Graph()
	finish, serial := at, at
	mode := e.actual.Config().Mode
	for _, pred := range g.Preds(k) {
		from := e.procOf[pred]
		if from == p {
			continue // same-processor transfers are free, degraded or not
		}
		nominal := e.actual.TransferOut(pred, from, p)
		start := at
		if mode == TransferSum {
			start = serial
		}
		f, err := elapseTransfer(d, from, p, nominal, start)
		if err != nil {
			return 0, err
		}
		serial = f
		if f > finish {
			finish = f
		}
	}
	if mode == TransferSum {
		return serial, nil
	}
	return finish, nil
}
