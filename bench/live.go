package main

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/online"
)

// liveKind is one task kind of the live mix: a row of the paper's lookup
// table with its times divided by ten and floored at 0.5 ms, in processor
// order CPU, GPU, FPGA.
type liveKind struct {
	name  string
	estMs []float64
}

var liveMix = []liveKind{
	{"matmul", []float64{2.96, 0.5, 14.9}}, // matmul at 250k elements
	{"mi", []float64{4.30, 0.97, 2.42}},    // matrix inverse at 250k
	{"cd", []float64{1.71, 0.5, 0.5}},      // Cholesky at 250k
	{"nw", []float64{11.2, 14.6, 39.7}},
	{"bfs", []float64{33.2, 17.3, 10.6}},
}

const (
	liveProcs = 3
	liveAlpha = 4
	// liveSchedulers independent schedulers run side by side, each fed its
	// own arrival sequence at the step's rate. Near saturation one
	// sequence's bursts move the latency percentiles by tens of percent;
	// pooling four sequences per run gives four times the samples in the
	// same time, and the bodies sleep, so they hardly compete for CPU.
	liveSchedulers = 4
	// liveTailP is live-mix's latency_ms_tail percentile, taken at the
	// lowest rate; four sequences leave dozens of samples beyond it.
	liveTailP = 99
	// liveWarmup tasks with instant bodies warm each scheduler up.
	liveWarmup = 500
	// liveSampleEvery is how often the backlog is sampled.
	liveSampleEvery = 10 * time.Millisecond
	// lateMs is the generator lateness gen.late_over_1ms_pct counts.
	lateMs = 1
)

// liveRates are the open loop's offered rates per scheduler in tasks per
// second, one step each, lowest first.
var liveRates = []float64{120, 200, 300}

// arrival is one task of the open loop's schedule.
type arrival struct {
	due   time.Duration // since the pass started
	kind  int
	step  int
	sched int
}

// poissonSchedule draws, for each of n schedulers, Poisson arrivals at
// each rate for stepDur with a uniformly drawn kind per task, and merges
// them in due order.
func poissonSchedule(r *rand.Rand, rates []float64, stepDur time.Duration, n int) []arrival {
	var out []arrival
	for sched := 0; sched < n; sched++ {
		for si, rate := range rates {
			base := time.Duration(si) * stepDur
			t := 0.0
			for {
				t += r.ExpFloat64() / rate
				due := time.Duration(t * float64(time.Second))
				if due >= stepDur {
					break
				}
				out = append(out, arrival{due: base + due, kind: r.Intn(len(liveMix)), step: si, sched: sched})
			}
		}
	}
	slices.SortStableFunc(out, func(a, b arrival) int { return cmp.Compare(a.due, b.due) })
	return out
}

// taskRecord is what the benchmark observed of one task. The generator
// writes due, submit and submitted; the task body writes start and end;
// the task's waiter writes done and res. wg.Wait orders all of it before
// the records are read.
type taskRecord struct {
	due, submit, submitted time.Time
	start, end, done       time.Time
	res                    online.Result
	err                    error // Submit's error
	handle                 *online.Handle
}

type liveState struct {
	scheds   []*online.Scheduler
	accepted []int // tasks each scheduler accepted, warm-up included
	schedule []arrival
	stepDur  time.Duration
}

func newLiveState(seed int64, stepDur time.Duration, o *outcome) (*liveState, error) {
	st := &liveState{
		schedule: poissonSchedule(rand.New(rand.NewSource(seed)), liveRates, stepDur, liveSchedulers),
		stepDur:  stepDur,
		accepted: make([]int, liveSchedulers),
	}
	for i := 0; i < liveSchedulers; i++ {
		s, err := online.NewWithConfig(online.Config{Procs: liveProcs, Alpha: liveAlpha})
		if err != nil {
			st.close(o)
			return nil, err
		}
		s.Start()
		st.scheds = append(st.scheds, s)
	}
	// Warm-up: the mix with instant bodies, submitted as fast as the queues
	// take them.
	var handles []*online.Handle
	for i := 0; i < liveWarmup*liveSchedulers; i++ {
		k, sched := liveMix[i%len(liveMix)], i%liveSchedulers
		h, err := st.scheds[sched].Submit(online.Task{Name: k.name, EstMs: k.estMs})
		o.attempted++
		if err != nil {
			o.fail(1, "warm-up submit: %v", err)
			continue
		}
		st.accepted[sched]++
		handles = append(handles, h)
	}
	for _, h := range handles {
		if r := <-h.Done; r.Err != nil {
			o.fail(1, "warm-up task: %v", r.Err)
		}
	}
	return st, nil
}

// close shuts the schedulers down and checks that every accepted task
// settled exactly once and none failed.
func (st *liveState) close(o *outcome) {
	for i, s := range st.scheds {
		s.Close()
		c := s.Stats()
		if c.Submitted != st.accepted[i] || c.Settled != c.Submitted || c.Failed != 0 {
			o.fail(1, "scheduler %d at Close: submitted %d (accepted %d), settled %d, failed %d",
				i, c.Submitted, st.accepted[i], c.Settled, c.Failed)
		}
	}
}

// queued returns the tasks waiting for a processor across the schedulers.
func (st *liveState) queued() int {
	q := 0
	for _, s := range st.scheds {
		q += s.Stats().Queued
	}
	return q
}

// backlogSample is the schedulers' queue length at one instant.
type backlogSample struct {
	at     time.Duration // since the pass started
	queued int
}

// livePass is one run of the stepped open loop.
type livePass struct {
	recs    []taskRecord
	backlog []backlogSample
	steps   []step
	proc    procDelta
}

// pass runs the schedule once from one generator goroutine. A traced pass
// also times each task body.
func (st *liveState) pass(o *outcome, traced bool) *livePass {
	p := &livePass{recs: make([]taskRecord, len(st.schedule))}
	stop := make(chan struct{})
	sampled := make(chan []backlogSample)
	before := sampleProc()
	start := time.Now()
	go func() {
		var out []backlogSample
		tick := time.NewTicker(liveSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sampled <- out
				return
			case now := <-tick.C:
				out = append(out, backlogSample{now.Sub(start), st.queued()})
			}
		}
	}()

	var wg sync.WaitGroup
	for i, a := range st.schedule {
		rec := &p.recs[i]
		rec.due = start.Add(a.due)
		if d := time.Until(rec.due); d > 0 {
			time.Sleep(d)
		}
		est := liveMix[a.kind].estMs
		task := online.Task{Name: liveMix[a.kind].name, EstMs: est, Run: sleepBody(est, rec, traced)}
		rec.submit = time.Now()
		h, err := st.scheds[a.sched].Submit(task)
		rec.submitted = time.Now()
		o.attempted++
		if err != nil {
			rec.err = err
			continue
		}
		st.accepted[a.sched]++
		rec.handle = h
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec.res = <-h.Done
			rec.done = time.Now()
		}()
	}
	wg.Wait()
	close(stop)
	p.backlog = <-sampled
	p.proc = before.to(sampleProc())
	o.measured += time.Since(start).Seconds()

	for i := range p.recs {
		rec := &p.recs[i]
		switch {
		case rec.err != nil:
			o.fail(1, "task %d: Submit: %v", i, rec.err)
		case rec.res.Err != nil:
			o.fail(1, "task %d: %v", i, rec.res.Err)
		}
		if rec.handle != nil {
			select {
			case r := <-rec.handle.Done:
				o.fail(1, "task %d delivered twice (second: %+v)", i, r)
			default:
			}
		}
	}
	p.steps = st.steps(p)
	return p
}

// sleepBody is a task body that sleeps the task's time on the processor
// it was placed on, costing no CPU; a traced body also times itself.
func sleepBody(estMs []float64, rec *taskRecord, traced bool) func(context.Context, online.ProcID) error {
	return func(ctx context.Context, p online.ProcID) error {
		if traced {
			rec.start = time.Now()
			defer func() { rec.end = time.Now() }()
		}
		t := time.NewTimer(time.Duration(estMs[p] * float64(time.Millisecond)))
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// sojournMs is a task's latency from its due time to its Done delivery.
func (r *taskRecord) sojournMs() float64 { return ms(r.done.Sub(r.due)) }

func (r *taskRecord) ok() bool { return r.err == nil && r.res.Err == nil }

// steps summarises each rate step over all schedulers: tasks are
// attributed by due time, the backlog by sample time.
func (st *liveState) steps(p *livePass) []step {
	out := make([]step, len(liveRates))
	lat := make([][]float64, len(liveRates))
	for i, a := range st.schedule {
		s := &out[a.step]
		s.tasks++
		rec := &p.recs[i]
		if !rec.ok() {
			s.failed++
			continue
		}
		lat[a.step] = append(lat[a.step], rec.sojournMs())
	}
	for si := range out {
		out[si].rate = liveRates[si]
		out[si].p99Ms = percentile(sorted(lat[si]), 99)
		begin := time.Duration(si) * st.stepDur
		out[si].queueMid = queuedAt(p.backlog, begin+st.stepDur/2)
		out[si].queueEnd = queuedAt(p.backlog, begin+st.stepDur)
	}
	return out
}

// queuedAt returns the last sampled queue length at or before t.
func queuedAt(samples []backlogSample, t time.Duration) int {
	q := 0
	for _, s := range samples {
		if s.at > t {
			break
		}
		q = s.queued
	}
	return q
}

func runLiveMix(e *env, o *outcome) error {
	stepDur := e.measure() / time.Duration(len(liveRates))
	st, err := timeSetup(e, o, func() (*liveState, error) { return newLiveState(e.seed, stepDur, o) },
		func(st *liveState) { st.close(o) })
	if err != nil {
		return err
	}
	defer st.close(o)
	o.row("live.tasks_per_pass", float64(len(st.schedule)), "count")

	u := st.pass(o, false)
	var lat, lowest []float64
	good := 0
	for i, a := range st.schedule {
		if rec := &u.recs[i]; rec.ok() {
			lat = append(lat, rec.sojournMs())
			if a.step == 0 {
				lowest = append(lowest, rec.sojournMs())
			}
			if rec.sojournMs() <= liveSLOMs {
				good++
			}
		}
	}
	// Goodput: tasks that met the latency limit, per second and scheduler.
	offered := (stepDur * time.Duration(len(liveRates))).Seconds() * liveSchedulers
	o.metric("throughput_per_s", float64(good)/offered)
	// The tail is taken at the lowest rate, where the α rule's costliest
	// admitted alternative sets it; at the higher steps queueing bursts
	// set it, and it moves by tens of percent between arrival sequences.
	latencyMetrics(o, lat, lowest, liveTailP)
	o.row("cpu_us_per_op", 1e6*u.proc.cpuSec/float64(len(u.recs)), "us")
	runtimeMetrics(o, u.proc, float64(len(u.recs)))
	stepRows(o, st, u, false)

	if o.tr != nil {
		t := st.pass(o, true)
		stepRows(o, st, t, true)
		var tlat []float64
		for i := range t.recs {
			if t.recs[i].ok() {
				tlat = append(tlat, t.recs[i].sojournMs())
			}
		}
		overhead(o, median(lat), median(tlat))
		traceLive(o, t, int64(len(st.schedule)))
	}
	return nil
}

// stepRows records the per-step numbers of a pass; a traced pass adds the
// layer metrics.
func stepRows(o *outcome, st *liveState, p *livePass, traced bool) {
	sfx := ""
	if traced {
		sfx = ".traced"
	}
	var sumQ, sumS float64
	alt, settled, late, backlogMax := 0, 0, 0, 0
	for si, s := range p.steps {
		tag := fmt.Sprintf(".r%.0f", s.rate)
		var lat, qw, exec []float64
		stepAlt, stepOK, miss, stepMax := 0, 0, 0, 0
		for i, a := range st.schedule {
			if a.step != si {
				continue
			}
			rec := &p.recs[i]
			if !rec.ok() || rec.sojournMs() > liveSLOMs {
				miss++
			}
			if !rec.ok() {
				continue
			}
			stepOK++
			lat = append(lat, rec.sojournMs())
			qw = append(qw, rec.res.QueueWaitMs)
			sumQ += rec.res.QueueWaitMs
			sumS += rec.res.SojournMs
			if rec.res.Alt {
				stepAlt++
			}
			if ms(rec.submit.Sub(rec.due)) > lateMs {
				late++
			}
			if traced {
				exec = append(exec, ms(rec.end.Sub(rec.start)))
			}
		}
		begin := time.Duration(si) * st.stepDur
		for _, b := range p.backlog {
			if b.at >= begin && b.at < begin+st.stepDur {
				stepMax = max(stepMax, b.queued)
			}
		}
		alt += stepAlt
		settled += stepOK
		backlogMax = max(backlogMax, stepMax)
		ls := sorted(lat)
		o.row("latency_ms_p50"+tag+sfx, percentile(ls, 50), "ms")
		o.row("latency_ms_p99"+tag+sfx, s.p99Ms, "ms")
		qs := sorted(qw)
		o.row("online.queue_wait_ms_p50"+tag+sfx, percentile(qs, 50), "ms")
		o.row("online.queue_wait_ms_p99"+tag+sfx, percentile(qs, 99), "ms")
		o.row("online.backlog_mid_to_end"+tag+sfx, float64(s.queueEnd-s.queueMid), "count")
		if !traced {
			continue
		}
		o.row("online.exec_ms_mean"+tag, mean(exec), "ms")
		o.metric("online.alt_share"+tag, 100*float64(stepAlt)/float64(max(stepOK, 1)))
		o.metric("online.backlog_max"+tag, float64(stepMax))
		o.metric("live.slo_miss_pct"+tag, 100*float64(miss)/float64(max(s.tasks, 1)))
	}
	mr := maxRateWithinSLO(p.steps)
	o.row("max_rate_within_slo"+sfx, mr, "1/s")
	if !traced {
		return
	}
	o.metric("live.max_rate_within_slo", mr)
	o.metric("online.alt_share", 100*float64(alt)/float64(max(settled, 1)))
	o.metric("online.queue_wait_share", 100*sumQ/sumS)
	o.metric("online.backlog_max", float64(backlogMax))
	o.metric("gen.late_over_1ms_pct", 100*float64(late)/float64(max(settled, 1)))

	var submitUs, deliverUs, lateMsS []float64
	for i := range p.recs {
		rec := &p.recs[i]
		if !rec.ok() {
			continue
		}
		submitUs = append(submitUs, float64(rec.submitted.Sub(rec.submit).Nanoseconds())/1e3)
		deliverUs = append(deliverUs, float64(rec.done.Sub(rec.end).Nanoseconds())/1e3)
		lateMsS = append(lateMsS, ms(rec.submit.Sub(rec.due)))
	}
	ss, ds, gs := sorted(submitUs), sorted(deliverUs), sorted(lateMsS)
	o.row("online.submit_us_p50", percentile(ss, 50), "us")
	o.row("online.submit_us_p99", percentile(ss, 99), "us")
	o.row("online.delivery_us_p50", percentile(ds, 50), "us")
	o.row("online.delivery_us_p99", percentile(ds, 99), "us")
	o.row("gen.late_ms_p50", percentile(gs, 50), "ms")
	o.row("gen.late_ms_p99", percentile(gs, 99), "ms")
}

// traceLive records each task of a traced pass as a span tree: lateness
// of the generator, the Submit call, the wait for a processor, the body
// and the delivery of its result.
func traceLive(o *outcome, p *livePass, reqBase int64) {
	for i := range p.recs {
		rec := &p.recs[i]
		req := reqBase + int64(i)
		root := o.tr.add("live.task", rec.due, rec.due, -1, req)
		o.tr.add("gen.late", rec.due, rec.submit, root, req)
		o.tr.add("online.Submit", rec.submit, rec.submitted, root, req)
		if !rec.ok() {
			o.tr.end(root, rec.submitted)
			continue
		}
		o.tr.add("online.queue", rec.submitted, rec.start, root, req)
		o.tr.add("task.body", rec.start, rec.end, root, req)
		o.tr.add("online.deliver", rec.end, rec.done, root, req)
		o.tr.end(root, rec.done)
	}
}
