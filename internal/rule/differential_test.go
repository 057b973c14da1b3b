package rule_test

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/online"
)

// simEvent is one arrival or finish of a simulated run, in time order.
type simEvent struct {
	at     float64
	task   int
	finish bool
}

// TestSimAndLiveAgree replays streams of independent tasks through both
// runtimes, the simulator under core.APT and the live online.Scheduler,
// and requires every task to run on the same processor, with the same alt
// flag, in both. The live side follows the simulator's events in time
// order: an arrival is a Submit, a finish releases that task's body and
// waits for its result, and before the next event the test waits for
// exactly the starts the simulator made at that instant. Live placement
// never reads the clock, so the order of events is all it sees.
func TestSimAndLiveAgree(t *testing.T) {
	const tasks = 40
	var runs, alts, waits int
	for _, alpha := range []float64{1, 1.5, 4, 16} {
		for seed := int64(1); seed <= 4; seed++ {
			costs, res, events := simulate(t, tasks, alpha, seed)
			if events == nil {
				continue // coincident event times leave the live order ambiguous
			}
			runs++
			for k, pl := range res.Placements {
				if pmin, _ := costs.BestProc(dfg.KernelID(k)); pl.Proc != pmin {
					alts++
				}
				if pl.Assign > pl.Arrival {
					waits++
				}
			}
			replayLive(t, alpha, seed, costs, res, events)
		}
	}
	// Guard the generator: the streams must exercise both the alternative
	// branch and waiting, or agreement proves little.
	if runs < 12 || alts == 0 || waits == 0 {
		t.Fatalf("weak replay: %d runs, %d alternative placements, %d waiting tasks", runs, alts, waits)
	}
}

// simulate runs n independent paper-catalog kernels under APT(α) with
// strictly increasing arrivals and returns the run's events in time order,
// or nil events when two of them coincide.
func simulate(t *testing.T, n int, alpha float64, seed int64) (*sim.Costs, *sim.Result, []simEvent) {
	t.Helper()
	g, err := workload.Independent(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	costs, err := sim.PrepareCosts(g, platform.PaperSystem(4), lut.Paper(), sim.CostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Gaps scale with each kernel's own best time, so the stream mixes idle
	// processors, busy best processors and queues.
	r := rand.New(rand.NewSource(seed))
	arrivals := make([]float64, n)
	at := 0.0
	for k := range arrivals {
		_, x := costs.BestProc(dfg.KernelID(k))
		at += x * (0.01 + r.Float64())
		arrivals[k] = at
	}
	res, err := sim.Run(costs, core.New(alpha), sim.Options{ArrivalTimes: arrivals})
	if err != nil {
		t.Fatal(err)
	}
	events := make([]simEvent, 0, 2*n)
	for k, pl := range res.Placements {
		events = append(events, simEvent{pl.Arrival, k, false}, simEvent{pl.Finish, k, true})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
	for i := 1; i < len(events); i++ {
		if events[i].at == events[i-1].at {
			return costs, res, nil
		}
	}
	return costs, res, events
}

type liveStart struct {
	task int
	proc online.ProcID
}

// replayLive drives an online.Scheduler through the simulated events and
// checks each task's processor and alt flag against the simulator's.
func replayLive(t *testing.T, alpha float64, seed int64, costs *sim.Costs, res *sim.Result, events []simEvent) {
	t.Helper()
	n := len(res.Placements)
	s, err := online.New(costs.System().NumProcs(), alpha)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()

	starts := make(chan liveStart, n) // one send per task; never blocks a body
	release := make([]chan struct{}, n)
	handles := make([]*online.Handle, n)
	for k := range release {
		release[k] = make(chan struct{})
	}
	startedAt := make(map[float64][]int)
	for k, pl := range res.Placements {
		startedAt[pl.Assign] = append(startedAt[pl.Assign], k)
	}

	for _, ev := range events {
		k := ev.task
		pl := res.Placements[k]
		if ev.finish {
			close(release[k])
			var got online.Result
			select {
			case got = <-handles[k].Done:
			case <-time.After(10 * time.Second):
				t.Fatalf("α=%g seed %d: task %d never finished", alpha, seed, k)
			}
			pmin, _ := costs.BestProc(dfg.KernelID(k))
			if got.Err != nil || int(got.Proc) != int(pl.Proc) || got.Alt != (pl.Proc != pmin) {
				t.Fatalf("α=%g seed %d: task %d ran live on %d (alt %v, err %v), simulated on %d (alt %v)",
					alpha, seed, k, got.Proc, got.Alt, got.Err, pl.Proc, pl.Proc != pmin)
			}
		} else {
			h, err := s.Submit(online.Task{
				Name:  costs.Graph().Kernel(dfg.KernelID(k)).Name,
				EstMs: append([]float64(nil), costs.ExecRow(dfg.KernelID(k))...),
				Run: func(ctx context.Context, p online.ProcID) error {
					starts <- liveStart{k, p}
					select {
					case <-release[k]:
					case <-ctx.Done():
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			handles[k] = h
		}
		for range startedAt[ev.at] {
			select {
			case st := <-starts:
				want := res.Placements[st.task]
				if want.Assign != ev.at || int(st.proc) != int(want.Proc) {
					t.Fatalf("α=%g seed %d: at t=%v task %d started live on %d; the simulator started it at t=%v on %d",
						alpha, seed, ev.at, st.task, st.proc, want.Assign, want.Proc)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("α=%g seed %d: at t=%v the simulator started %v, the live scheduler did not",
					alpha, seed, ev.at, startedAt[ev.at])
			}
		}
	}
	if len(starts) != 0 {
		t.Fatalf("α=%g seed %d: %d live starts the simulator never made", alpha, seed, len(starts))
	}
}
