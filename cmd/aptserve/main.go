// aptserve is an HTTP/JSON front end over the online scheduler: an APT
// placement service a host process (or a load generator) can feed live
// work into.
//
//	aptserve -addr :8080 -procs 4 -alpha 4 -snapshot state.json
//
// The API is versioned under /v1. Data-plane endpoints:
//
//	POST /v1/submit   — one task: {"name","est_ms":[...],"xfer_ms":[...],"actual_ms":[...]}
//	                    blocks until the task finishes, returns the placement
//	                    and measured latencies. 429 when the admission queue
//	                    is full, 409 once draining has begun.
//	POST /v1/graph    — a task DAG: {"tasks":[{"name","est_ms","deps":[...]},...]}
//	                    dependencies release as predecessors finish; returns
//	                    per-task placements and the graph makespan.
//
// Ops endpoints (the config plane):
//
//	GET  /v1/stats    — live scheduler statistics: counters, current α and
//	                    sojourn / queue-wait percentiles, as JSON.
//	GET  /v1/metrics  — the same telemetry as Prometheus text-format
//	                    exposition, including full latency histograms.
//	GET  /v1/trace    — the last -trace-depth completions as a Chrome
//	                    trace-event JSON array (load in chrome://tracing).
//	GET  /v1/snapshot — the scheduler's accepted-but-unfinished work as a
//	                    versioned JSON snapshot (see -snapshot).
//	GET  /v1/procs    — per-processor health: circuit-breaker state,
//	                    consecutive failures, trips.
//	GET  /healthz     — readiness: {"status":"ok",...} when fully healthy;
//	                    {"status":"degraded",...} (still 200) while any
//	                    processor's breaker is open or half-open; 503 only
//	                    while draining. "degraded" means the service keeps
//	                    accepting and completing work on reduced capacity —
//	                    load balancers should keep routing to it, while
//	                    operators investigate the named processors.
//
// Every JSON error uses the envelope {"error": "...", "code": "..."}.
//
// Tasks "execute" by sleeping their actual_ms on the chosen processor
// (divided by -speed, so demos and smoke tests run fast); actual_ms
// defaults to est_ms. On SIGINT/SIGTERM the server stops accepting HTTP
// requests and drains the scheduler (bounded by -drain-timeout). With
// -snapshot FILE, work that does not finish within the drain bound is
// written to FILE and reloaded on the next boot, so a restart loses no
// accepted tasks (at-least-once: a task that was mid-execution runs
// again). The final stats are printed as JSON on stderr.
//
// Fault tolerance: -timeout bounds each execution attempt, -retries N
// gives every task N attempts with exponential backoff (-retry-backoff,
// -retry-max-backoff, -retry-seed), and -breaker-fails enables
// per-processor circuit breakers (-breaker-cooldown, -breaker-window,
// -breaker-timeout-rate). -chaos SPEC injects seeded faults (crash/hang
// windows, flaky processors or task kinds, added latency — see
// online.ParseFaultPlan) into every task for resilience smoke tests.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/telemetry"
	"repro/online"
)

type config struct {
	procs        int
	alpha        float64
	queueLimit   int
	speed        float64
	autoTune     bool
	drainTimeout time.Duration
	snapshotPath string
	traceDepth   int
	maxBody      int64

	timeoutMs       float64
	retries         int
	retryBackoff    time.Duration
	retryMaxBackoff time.Duration
	retrySeed       int64

	breakerFails       int // 0 disables the circuit breakers
	breakerCooldown    time.Duration
	breakerWindow      int
	breakerTimeoutRate float64

	chaos     string
	chaosSeed int64
}

// server glues the HTTP handlers to one online.Scheduler.
type server struct {
	sched    *online.Scheduler
	cfg      config
	chaos    *online.FaultPlan // nil without -chaos
	start    time.Time
	draining chan struct{} // closed when shutdown begins; healthz turns 503
}

func newServer(cfg config) (*server, error) {
	if cfg.speed <= 0 {
		return nil, fmt.Errorf("aptserve: -speed must be positive, got %v", cfg.speed)
	}
	if cfg.maxBody <= 0 {
		return nil, fmt.Errorf("aptserve: -max-body must be positive, got %d", cfg.maxBody)
	}
	if cfg.timeoutMs < 0 {
		return nil, fmt.Errorf("aptserve: -timeout must be >= 0, got %v", cfg.timeoutMs)
	}
	sc := online.Config{
		Procs:            cfg.procs,
		Alpha:            cfg.alpha,
		QueueLimit:       cfg.queueLimit,
		AutoTune:         cfg.autoTune,
		TraceDepth:       cfg.traceDepth,
		DefaultTimeoutMs: cfg.timeoutMs,
		Retry: online.RetryPolicy{
			MaxAttempts: cfg.retries,
			BaseBackoff: cfg.retryBackoff,
			MaxBackoff:  cfg.retryMaxBackoff,
			JitterSeed:  cfg.retrySeed,
		},
	}
	if cfg.breakerFails > 0 {
		sc.Breaker = &online.BreakerConfig{
			FailureThreshold: cfg.breakerFails,
			Cooldown:         cfg.breakerCooldown,
			Window:           cfg.breakerWindow,
			TimeoutRate:      cfg.breakerTimeoutRate,
		}
	}
	var chaos *online.FaultPlan
	if cfg.chaos != "" {
		fp, err := online.ParseFaultPlan(cfg.chaos, cfg.chaosSeed)
		if err != nil {
			return nil, err
		}
		// A rule naming a processor the scheduler lacks would never fire.
		for i, r := range fp.Rules() {
			if r.Kind != online.KindFlaky && int(r.Proc) >= cfg.procs {
				return nil, fmt.Errorf("aptserve: -chaos rule %d names processor %d, but the scheduler has %d processors", i, r.Proc, cfg.procs)
			}
		}
		chaos = fp
	}
	sched, err := online.NewWithConfig(sc)
	if err != nil {
		return nil, err
	}
	sched.Start()
	if chaos != nil {
		chaos.Begin()
	}
	return &server{sched: sched, cfg: cfg, chaos: chaos, start: time.Now(), draining: make(chan struct{})}, nil
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", s.handleSubmit)
	mux.HandleFunc("POST /v1/graph", s.handleGraph)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/procs", s.handleProcs)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	// Unknown /v1 paths get the JSON envelope, not the default text 404.
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		apiError(w, http.StatusNotFound, "not_found", fmt.Errorf("no such endpoint: %s %s", r.Method, r.URL.Path))
	})
	return mux
}

type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func apiError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error(), Code: code})
}

// decode parses a bounded JSON request body; on failure it writes the
// error envelope and returns false.
func (s *server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.maxBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			apiError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		apiError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("decode: %w", err))
		return false
	}
	return true
}

// submitFailure maps scheduler admission errors to the API contract.
func submitFailure(err error) (int, string) {
	var est *online.EstimateError
	switch {
	case errors.As(err, &est):
		return http.StatusBadRequest, "bad_request"
	case errors.Is(err, online.ErrQueueFull):
		return http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, online.ErrClosed):
		return http.StatusConflict, "draining"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, "cancelled"
	default:
		return http.StatusBadRequest, "bad_request"
	}
}

type taskRequest struct {
	Name     string    `json:"name"`
	EstMs    []float64 `json:"est_ms"`
	XferMs   []float64 `json:"xfer_ms,omitempty"`
	ActualMs []float64 `json:"actual_ms,omitempty"`
}

type taskResponse struct {
	Name        string  `json:"name"`
	Proc        int     `json:"proc"`
	Alt         bool    `json:"alt"`
	SojournMs   float64 `json:"sojourn_ms"`
	QueueWaitMs float64 `json:"queue_wait_ms"`
	Attempts    int     `json:"attempts,omitempty"`
	Err         string  `json:"err,omitempty"`
}

// task converts a request into a scheduler task whose Run sleeps the
// actual time on the chosen processor, scaled by -speed. The request
// itself rides along as the task's snapshot payload, so a restored server
// can rebuild the same sleep behaviour.
func (s *server) task(req taskRequest) (online.Task, error) {
	actual := req.ActualMs
	if actual == nil {
		actual = req.EstMs
	}
	if len(actual) != len(req.EstMs) {
		return online.Task{}, fmt.Errorf("task %q: %d actual_ms for %d est_ms", req.Name, len(actual), len(req.EstMs))
	}
	field := "actual_ms"
	if req.ActualMs == nil {
		field = "est_ms"
	}
	for p, a := range actual {
		if a < 0 {
			return online.Task{}, fmt.Errorf("task %q: negative %s %v on processor %d", req.Name, field, a, p)
		}
	}
	if err := checkSleep(req.Name, field, actual, s.cfg.speed); err != nil {
		return online.Task{}, err
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return online.Task{}, fmt.Errorf("task %q: encode payload: %w", req.Name, err)
	}
	run := sleepRun(actual, s.cfg.speed)
	if s.chaos != nil {
		run = s.chaos.Wrap(req.Name, run)
	}
	return online.Task{
		Name:    req.Name,
		EstMs:   req.EstMs,
		XferMs:  req.XferMs,
		Payload: payload,
		Run:     run,
	}, nil
}

// checkSleep refuses a body that would sleep ms[p]/speed milliseconds past
// online.MaxDelayMs: the time.Duration would overflow negative and the
// task would finish at once instead of sleeping. field names the request
// field the times came from.
func checkSleep(name, field string, ms []float64, speed float64) error {
	for p, v := range ms {
		if v/speed > online.MaxDelayMs {
			return fmt.Errorf("task %q: %s %v on processor %d sleeps %v ms at -speed %v, past the %v ms a time.Duration holds",
				name, field, v, p, v/speed, speed, online.MaxDelayMs)
		}
	}
	return nil
}

// sleepRun builds the standard "execute by sleeping" task body.
func sleepRun(actualMs []float64, speed float64) func(context.Context, online.ProcID) error {
	return func(ctx context.Context, p online.ProcID) error {
		d := time.Duration(actualMs[p] / speed * float64(time.Millisecond))
		if d <= 0 {
			return nil
		}
		select {
		case <-time.After(d):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// rebuild reconstructs a snapshot task's Run from the taskRequest payload
// the submit handler stored; a payload-less task sleeps its est_ms.
func (s *server) rebuild(st online.SnapshotTask) (func(context.Context, online.ProcID) error, error) {
	req := taskRequest{EstMs: st.EstMs}
	if len(st.Payload) > 0 {
		if err := json.Unmarshal(st.Payload, &req); err != nil {
			return nil, fmt.Errorf("payload: %w", err)
		}
	}
	actual, field := req.ActualMs, "actual_ms"
	if len(actual) != len(st.EstMs) {
		actual, field = st.EstMs, "est_ms"
	}
	if err := checkSleep(st.Name, field, actual, s.cfg.speed); err != nil {
		return nil, err
	}
	run := sleepRun(actual, s.cfg.speed)
	if s.chaos != nil {
		run = s.chaos.Wrap(st.Name, run)
	}
	return run, nil
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req taskRequest
	if !s.decode(w, r, &req) {
		return
	}
	task, err := s.task(req)
	if err != nil {
		apiError(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	// Fast-fail admission: a full queue is the client's backpressure
	// signal (429 + Retry-After), not a reason to pin a handler goroutine.
	h, err := s.sched.Submit(task)
	if err != nil {
		status, code := submitFailure(err)
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		apiError(w, status, code, err)
		return
	}
	// Don't pin the handler goroutine on an abandoned request: the task
	// keeps running to completion either way, but a disconnected client
	// releases this goroutine immediately.
	var res online.Result
	select {
	case res = <-h.Done:
	case <-r.Context().Done():
		apiError(w, http.StatusServiceUnavailable, "cancelled", r.Context().Err())
		return
	}
	resp := taskResponse{
		Name:        req.Name,
		Proc:        int(res.Proc),
		Alt:         res.Alt,
		SojournMs:   res.SojournMs,
		QueueWaitMs: res.QueueWaitMs,
		Attempts:    res.Attempts,
	}
	if res.Err != nil {
		resp.Err = res.Err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

type graphRequest struct {
	Tasks []graphTaskRequest `json:"tasks"`
}

type graphTaskRequest struct {
	taskRequest
	Deps []int `json:"deps,omitempty"`
}

type graphResponse struct {
	ElapsedMs float64        `json:"elapsed_ms"`
	Err       string         `json:"err,omitempty"`
	Results   []taskResponse `json:"results"`
}

func (s *server) handleGraph(w http.ResponseWriter, r *http.Request) {
	var req graphRequest
	if !s.decode(w, r, &req) {
		return
	}
	tasks := make([]online.GraphTask, len(req.Tasks))
	for i, tr := range req.Tasks {
		task, err := s.task(tr.taskRequest)
		if err != nil {
			apiError(w, http.StatusBadRequest, "bad_request", err)
			return
		}
		tasks[i] = online.GraphTask{Task: task, Deps: tr.Deps}
	}
	start := time.Now()
	h, err := s.sched.SubmitGraph(tasks)
	if err != nil {
		status, code := submitFailure(err)
		apiError(w, status, code, err)
		return
	}
	var res online.GraphResult
	select {
	case res = <-h.Done:
	case <-r.Context().Done():
		// The graph keeps executing; only the abandoned handler returns.
		apiError(w, http.StatusServiceUnavailable, "cancelled", r.Context().Err())
		return
	}
	resp := graphResponse{
		ElapsedMs: durMs(time.Since(start)),
		Results:   make([]taskResponse, len(res.Results)),
	}
	if res.Err != nil {
		resp.Err = res.Err.Error()
	}
	for i, tr := range res.Results {
		resp.Results[i] = taskResponse{
			Name:        req.Tasks[i].Name,
			Proc:        int(tr.Proc),
			Alt:         tr.Alt,
			SojournMs:   tr.SojournMs,
			QueueWaitMs: tr.QueueWaitMs,
			Attempts:    tr.Attempts,
		}
		if tr.Err != nil {
			resp.Results[i].Err = tr.Err.Error()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.Stats())
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.sched.Stats()
	soj, qw := s.sched.LatencyHistograms()
	e := telemetry.SchedulerMetrics(st, soj, qw)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := e.WriteTo(w); err != nil {
		log.Printf("aptserve: metrics write: %v", err)
	}
}

func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	events := s.sched.Trace()
	if events == nil {
		apiError(w, http.StatusNotFound, "trace_disabled",
			fmt.Errorf("placement tracing is disabled; start aptserve with -trace-depth N"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := telemetry.WriteChromeTrace(w, s.sched.NumProcs(), events); err != nil {
		log.Printf("aptserve: trace write: %v", err)
	}
}

func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sn, err := s.sched.Snapshot()
	if err != nil {
		apiError(w, http.StatusInternalServerError, "internal", err)
		return
	}
	writeJSON(w, http.StatusOK, sn)
}

// handleProcs reports per-processor health: breaker state, consecutive
// failures and trips — the observable form of the register/withdraw
// lifecycle a multi-node cluster will need.
func (s *server) handleProcs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"procs": s.sched.ProcHealth()})
}

// handleHealthz distinguishes three readiness states: "ok" (every breaker
// closed), "degraded" (some breaker open or half-open — still 200, the
// service completes work on reduced capacity; the affected processors are
// listed in "unhealthy_procs") and "draining" (503: shutdown has begun,
// stop routing here).
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.draining:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	default:
	}
	status := "ok"
	var unhealthy []int
	for _, ph := range s.sched.ProcHealth() {
		if ph.State == "open" || ph.State == "half-open" {
			status = "degraded"
			unhealthy = append(unhealthy, int(ph.Proc))
		}
	}
	body := map[string]any{
		"status":    status,
		"procs":     s.sched.NumProcs(),
		"alpha":     s.sched.Alpha(),
		"uptime_ms": durMs(time.Since(s.start)),
	}
	if len(unhealthy) > 0 {
		body["unhealthy_procs"] = unhealthy
	}
	writeJSON(w, http.StatusOK, body)
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// restore loads a boot snapshot if one exists, resubmits its tasks and
// removes the file (it is consumed; the next shutdown writes a fresh one).
func (s *server) restore(path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	sn, err := online.ReadSnapshot(f)
	f.Close()
	if err != nil {
		return err
	}
	n, err := online.Restore(context.Background(), s.sched, sn, s.rebuild)
	if err != nil {
		return fmt.Errorf("restored %d of %d tasks: %w", n, sn.Count(), err)
	}
	log.Printf("aptserve: restored %d tasks from snapshot %s", n, path)
	return os.Remove(path)
}

// shutdown quiesces the scheduler; if the drain bound expires with work
// still pending and -snapshot is set, the leftover tasks are captured to
// disk before the hard close. Returns the final stats.
func (s *server) shutdown(ctx context.Context) online.Stats {
	err := s.sched.Quiesce(ctx)
	if err != nil {
		log.Printf("aptserve: drain: %v", err)
		if s.cfg.snapshotPath != "" {
			if werr := s.writeSnapshot(); werr != nil {
				log.Printf("aptserve: snapshot: %v", werr)
			}
		}
	}
	s.sched.Close()
	return s.sched.Stats()
}

// writeSnapshot captures unfinished work atomically (tmp file + rename) so
// a crash mid-write never leaves a truncated snapshot for the next boot.
func (s *server) writeSnapshot() error {
	sn, err := s.sched.Snapshot()
	if err != nil {
		return err
	}
	if sn.Count() == 0 {
		log.Printf("aptserve: no unfinished tasks; skipping snapshot")
		return nil
	}
	tmp := s.cfg.snapshotPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := sn.WriteJSON(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, s.cfg.snapshotPath); err != nil {
		os.Remove(tmp)
		return err
	}
	log.Printf("aptserve: wrote %d unfinished tasks to snapshot %s", sn.Count(), s.cfg.snapshotPath)
	return nil
}

func main() {
	var cfg config
	addr := flag.String("addr", ":8080", "listen address")
	flag.IntVar(&cfg.procs, "procs", 4, "number of worker processors")
	flag.Float64Var(&cfg.alpha, "alpha", 4, "flexibility factor α (>= 1)")
	flag.IntVar(&cfg.queueLimit, "queue", online.DefaultQueueLimit, "admission queue bound (negative = unbounded)")
	flag.Float64Var(&cfg.speed, "speed", 1, "divide simulated execution times by this factor")
	flag.BoolVar(&cfg.autoTune, "autotune", false, "auto-tune α from observed alt-assignment regret")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "graceful drain bound on shutdown")
	flag.StringVar(&cfg.snapshotPath, "snapshot", "", "snapshot unfinished work to FILE when the drain bound expires, and restore from it on boot")
	flag.IntVar(&cfg.traceDepth, "trace-depth", 256, "completions kept for GET /v1/trace (0 disables tracing)")
	flag.Int64Var(&cfg.maxBody, "max-body", 1<<20, "maximum JSON request body size in bytes")
	flag.Float64Var(&cfg.timeoutMs, "timeout", 0, "per-attempt execution bound in wall-clock ms (0 = none)")
	flag.IntVar(&cfg.retries, "retries", 1, "execution attempts per task, including the first")
	flag.DurationVar(&cfg.retryBackoff, "retry-backoff", time.Millisecond, "delay before the first retry (doubles per attempt)")
	flag.DurationVar(&cfg.retryMaxBackoff, "retry-max-backoff", time.Second, "cap on the exponential retry backoff")
	flag.Int64Var(&cfg.retrySeed, "retry-seed", 0, "seed for the deterministic retry jitter")
	flag.IntVar(&cfg.breakerFails, "breaker-fails", 0, "consecutive failures that trip a processor's circuit breaker (0 disables breakers)")
	flag.DurationVar(&cfg.breakerCooldown, "breaker-cooldown", time.Second, "open→half-open cooldown before a recovery probe")
	flag.IntVar(&cfg.breakerWindow, "breaker-window", 20, "attempt outcomes tracked per processor for the timeout-rate rule")
	flag.Float64Var(&cfg.breakerTimeoutRate, "breaker-timeout-rate", 0.5, "fraction of a full window that must time out to trip the breaker")
	flag.StringVar(&cfg.chaos, "chaos", "", "fault-injection spec, e.g. \"flaky:0:0.6,crash:1:0:1500,lat:2:5\" (see online.ParseFaultPlan)")
	flag.Int64Var(&cfg.chaosSeed, "chaos-seed", 1, "seed for the chaos plan's probability draws")
	flag.Parse()

	srv, err := newServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if cfg.snapshotPath != "" {
		if err := srv.restore(cfg.snapshotPath); err != nil {
			log.Fatalf("aptserve: restore: %v", err)
		}
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.routes()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("aptserve: listening on %s (procs=%d α=%g autotune=%v)", *addr, cfg.procs, cfg.alpha, cfg.autoTune)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	close(srv.draining)
	log.Printf("aptserve: draining (timeout %s)", cfg.drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("aptserve: http shutdown: %v", err)
	}
	final := srv.shutdown(shutCtx)
	out, _ := json.Marshal(final)
	fmt.Fprintf(os.Stderr, "aptserve: final stats %s\n", out)
}
