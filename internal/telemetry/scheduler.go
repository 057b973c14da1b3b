package telemetry

import (
	"io"
	"strconv"

	"repro/internal/report"
	"repro/internal/stats"
	"repro/online"
)

// SchedulerMetrics renders one online.Stats snapshot (plus optional
// latency histograms from Scheduler.LatencyHistograms) as a Prometheus
// exposition. All inputs are caller-owned copies, so this never contends
// with the scheduler.
func SchedulerMetrics(st online.Stats, sojourn, qwait *stats.Histogram) *Exposition {
	e := &Exposition{}
	e.Gauge("apt_alpha", "Current flexibility factor of the APT placement rule.", st.Alpha)
	e.Gauge("apt_queue_depth", "Tasks currently waiting for a processor.", float64(st.Queued))
	e.Gauge("apt_uptime_ms", "Wall-clock milliseconds since the scheduler started.", st.UptimeMs)
	e.Counter("apt_submitted_total", "Accepted tasks, including graph-released ones.", float64(st.Submitted))
	e.Counter("apt_completed_total", "Finished tasks across all processors.", float64(st.Completed))
	e.Counter("apt_rejected_total", "Queue-full refusals and cancelled blocking submits.", float64(st.Rejected))
	e.Counter("apt_alt_assignments_total", "Placements on a non-optimal processor via the threshold rule.", float64(st.AltAssignments))
	e.Counter("apt_failed_total", "Tasks settled with an error after exhausting any retry budget.", float64(st.Failed))
	e.Counter("apt_retries_total", "Task re-executions beyond each task's first attempt.", float64(st.Retries))
	e.Counter("apt_timeouts_total", "Execution attempts that exceeded their time bound.", float64(st.Timeouts))
	e.Counter("apt_panics_total", "Execution attempts that panicked (recovered by the worker).", float64(st.Panics))
	e.Counter("apt_breaker_trips_total", "Circuit-breaker open transitions across all processors.", float64(st.BreakerTrips))
	if len(st.PerProcHealthy) > 0 {
		healthy := make([]float64, len(st.PerProcHealthy))
		for i, h := range st.PerProcHealthy {
			if h {
				healthy[i] = 1
			}
		}
		e.GaugePer("apt_proc_healthy", "Placement eligibility per processor (0 while its breaker is open).", "proc", healthy)
	}
	perProc := make([]float64, len(st.PerProc))
	for i, c := range st.PerProc {
		perProc[i] = float64(c)
	}
	e.CounterPer("apt_proc_completed_total", "Finished tasks per processor.", "proc", perProc)
	e.CounterPer("apt_proc_busy_ms_total", "Cumulative execution wall-clock per processor, milliseconds.", "proc", st.PerProcBusyMs)
	if st.UptimeMs > 0 {
		util := make([]float64, len(st.PerProcBusyMs))
		for i, busy := range st.PerProcBusyMs {
			u := busy / st.UptimeMs
			if u < 0 {
				u = 0
			} else if u > 1 {
				u = 1
			}
			util[i] = u
		}
		e.GaugePer("apt_proc_utilization", "Fraction of uptime each processor spent executing.", "proc", util)
	}
	e.Histogram("apt_sojourn_ms", "Arrival-to-finish latency, milliseconds.", sojourn)
	e.Histogram("apt_queue_wait_ms", "Arrival-to-execution-start delay, milliseconds.", qwait)
	return e
}

// WriteChromeTrace renders live completions as the simulator's Chrome
// trace (report.EncodeTrace), one exec slice each, adding the submission
// seq, the estimate placed on (est_ms), the attempt and the failed flag.
func WriteChromeTrace(w io.Writer, procs int, events []online.TraceEvent) error {
	lanes := make([]string, procs)
	for p := range lanes {
		lanes[p] = "proc " + strconv.Itoa(p)
	}
	slices := make([]report.TraceEvent, len(events))
	for i, ev := range events {
		slices[i] = report.ExecSlice(int(ev.Proc), ev.Name, ev.Alt, ev.StartMs, ev.FinishMs, ev.QueueWaitMs, ev.BestEstMs,
			map[string]string{"seq": strconv.FormatUint(ev.Seq, 10), "est_ms": report.TraceNum(ev.EstMs),
				"attempt": strconv.Itoa(ev.Attempt), "failed": strconv.FormatBool(ev.Failed)})
	}
	return report.EncodeTrace(w, lanes, slices)
}
