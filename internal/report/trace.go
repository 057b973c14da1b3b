package report

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"repro/internal/dfg"
	"repro/internal/platform"
	"repro/internal/sim"
)

// TraceEvent is one Chrome trace event ("Trace Event Format", the JSON
// array flavour), the one record both runtimes' placement traces are made
// of: WriteChromeTrace fills it from a simulation, telemetry's converter
// from the live scheduler's completions. Times are microseconds.
type TraceEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`
	Dur   float64           `json:"dur"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// TraceNum formats a millisecond trace arg to the microsecond, the
// resolution of trace timestamps.
func TraceNum(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// ExecSlice returns the slice for one execution on processor lane tid, in
// category "exec" ("exec,alt" on an alternative processor), adding to a
// runtime's own args the ones every trace carries: queue_wait_ms,
// best_est_ms (the x of the α·x threshold) and actual_ms.
func ExecSlice(tid int, name string, alt bool, startMs, finishMs, queueWaitMs, bestEstMs float64, args map[string]string) TraceEvent {
	cat := "exec"
	if alt {
		cat = "exec,alt"
	}
	args["queue_wait_ms"] = TraceNum(queueWaitMs)
	args["best_est_ms"] = TraceNum(bestEstMs)
	args["actual_ms"] = TraceNum(finishMs - startMs)
	return TraceEvent{Name: name, Cat: cat, Phase: "X", TS: startMs * 1000, Dur: (finishMs - startMs) * 1000, PID: 1, TID: tid, Args: args}
}

// EncodeTrace writes a Chrome trace as one JSON array: a thread_name row
// naming each processor lane, then the events in timestamp order (stable,
// so simultaneous events keep their order). Load the output in
// chrome://tracing or https://ui.perfetto.dev.
func EncodeTrace(w io.Writer, lanes []string, events []TraceEvent) error {
	all := make([]TraceEvent, 0, len(lanes)+len(events))
	for tid, name := range lanes {
		all = append(all, TraceEvent{Name: "thread_name", Phase: "M", PID: 1, TID: tid, Args: map[string]string{"name": name}})
	}
	all = append(all, events...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].TS < all[j].TS })
	return json.NewEncoder(w).Encode(all)
}

// WriteChromeTrace renders a finished simulation as a Chrome trace: one
// lane per processor, with transfers and executions as separate slices.
func WriteChromeTrace(w io.Writer, res *sim.Result, g *dfg.Graph, sys *platform.System) error {
	lanes := make([]string, sys.NumProcs())
	for _, p := range sys.Procs() {
		lanes[p.ID] = p.Name
	}
	var events []TraceEvent
	for i := range res.Placements {
		pl := &res.Placements[i]
		k := g.Kernel(pl.Kernel)
		name := strconv.Itoa(int(pl.Kernel)) + "-" + k.Name
		if xfer := pl.ExecStart - pl.TransferStart; xfer > 0 {
			events = append(events, TraceEvent{Name: "xfer " + name, Cat: "transfer", Phase: "X",
				TS: pl.TransferStart * 1000, Dur: xfer * 1000, PID: 1, TID: int(pl.Proc)})
		}
		events = append(events, ExecSlice(int(pl.Proc), name, false, pl.ExecStart, pl.Finish, pl.QueueWait(), pl.BestExecMs,
			map[string]string{"kernel": k.Name, "dataElems": strconv.FormatInt(k.DataElems, 10), "lambdaMs": TraceNum(pl.Lambda())}))
	}
	return EncodeTrace(w, lanes, events)
}
