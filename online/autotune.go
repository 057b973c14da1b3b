package online

import "math"

// The live α auto-tune (Config.AutoTune) adjusts the flexibility factor
// from observed alternative-assignment regret.
//
// The signal: every alternative assignment records the ratio of the chosen
// processor's estimated cost to the best processor's estimate (≥ 1 — how
// much slower the task is expected to run for not waiting). Each window of
// tuneEvery completions, the tuner compares the window's mean ratio
// against tuneTargetRegret:
//
//   - mean ratio above target — the threshold admits alternatives that are
//     too much slower than waiting would have been; α is tightened
//     (divided by tuneStep).
//   - mean ratio at or below target while tasks are waiting in the queue —
//     the threshold is leaving processors idle that would have been
//     acceptable; α is loosened (multiplied by tuneStep).
//
// α stays within [tuneMinAlpha, tuneMaxAlpha]. The loop runs on the
// sweeper goroutine, so tuning adds no synchronisation to the submit or
// completion paths (the live α is a single atomic word).
//
// The parameters are constants: on the live-mix benchmark, tuning from
// α=4 with these values matched the best fixed α (2) and halved p99
// sojourn against fixed α=4 (docs/ARCHITECTURE.md, "α auto-tune,
// measured").
const (
	// tuneTargetRegret is the acceptable mean chosen-cost/best-estimate
	// ratio over a window: alternatives may average 50% slower than the
	// best estimate.
	tuneTargetRegret = 1.5
	// tuneEvery is the number of completions between adjustments.
	tuneEvery = 128
	// tuneStep is the multiplicative adjustment per decision.
	tuneStep = 1.05
	// tuneMinAlpha and tuneMaxAlpha bound the tuned α.
	tuneMinAlpha, tuneMaxAlpha = 1.0, 16.0
)

// tuner is the sweeper-private state of the auto-tune loop: the cumulative
// counters at the previous adjustment, for window deltas.
type tuner struct {
	lastCompleted int
	lastAlt       int
	lastRegret    float64
}

// maybeTune runs one adjustment decision if a full window of completions
// has elapsed. Called only from the sweeper goroutine.
func (tn *tuner) maybeTune(s *Scheduler) {
	if !s.tune {
		return
	}
	completed := int(s.completed.Load())
	if completed-tn.lastCompleted < tuneEvery {
		return
	}
	alt, regret := 0, 0.0
	for p := range s.procs {
		t := &s.procs[p].tele
		t.mu.Lock()
		alt += t.alt
		regret += t.regretSum
		t.mu.Unlock()
	}
	dAlt := alt - tn.lastAlt
	dRegret := regret - tn.lastRegret
	tn.lastCompleted, tn.lastAlt, tn.lastRegret = completed, alt, regret

	alpha := s.Alpha()
	switch {
	case dAlt > 0 && dRegret/float64(dAlt) > tuneTargetRegret:
		alpha = math.Max(tuneMinAlpha, alpha/tuneStep)
	case s.queued.Load() > 0:
		alpha = math.Min(tuneMaxAlpha, alpha*tuneStep)
	default:
		return
	}
	s.alphaBits.Store(math.Float64bits(alpha))
}
