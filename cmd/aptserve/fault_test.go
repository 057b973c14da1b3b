package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/online"
)

// faultCfg enables retries and a hair-trigger breaker for the HTTP-level
// fault tests.
func faultCfg() config {
	return config{
		procs:           2,
		alpha:           1, // strict pinning: est decides the processor
		retries:         3,
		retryBackoff:    time.Millisecond,
		retryMaxBackoff: 2 * time.Millisecond,
		breakerFails:    2,
		breakerCooldown: 50 * time.Millisecond,
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// waitCond polls until cond holds or the deadline passes.
func waitCond(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: condition not reached in %v", what, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestProcsEndpointAndDegradedHealthz: injected crashes trip proc 0's
// breaker; /v1/procs reports the open state, /v1/healthz turns "degraded"
// (still 200) naming the processor, and stats/metrics agree. The cooldown
// is a minute so the open state cannot flip mid-assertion.
func TestProcsEndpointAndDegradedHealthz(t *testing.T) {
	cfg := faultCfg()
	cfg.retries = 1 // single attempts, so the breaker sees consecutive failures
	cfg.breakerCooldown = time.Minute
	cfg.chaos = "crash:0:0:60000"
	srv, ts := testServer(t, cfg)

	var procs struct {
		Procs []online.ProcHealth `json:"procs"`
	}
	getJSON(t, ts.URL+"/v1/procs", &procs)
	if len(procs.Procs) != 2 {
		t.Fatalf("procs = %+v, want 2", procs.Procs)
	}
	for _, ph := range procs.Procs {
		if ph.State != "closed" || !ph.Healthy {
			t.Fatalf("initial health: %+v", ph)
		}
	}

	// Two tasks pinned to proc 0 fail inside the crash window and trip it.
	for i := 0; i < 2; i++ {
		var out taskResponse
		postJSON(t, ts.URL+"/v1/submit", taskRequest{Name: "pin0", EstMs: []float64{1, 1000}}, &out)
		if out.Err == "" {
			t.Fatalf("task %d survived the crash window", i)
		}
	}
	getJSON(t, ts.URL+"/v1/procs", &procs)
	if procs.Procs[0].State != "open" || procs.Procs[0].Healthy || procs.Procs[0].Trips != 1 {
		t.Fatalf("proc 0 after crashes: %+v, want open", procs.Procs[0])
	}
	if procs.Procs[1].State != "closed" {
		t.Fatalf("proc 1 affected: %+v", procs.Procs[1])
	}

	var hz struct {
		Status    string `json:"status"`
		Unhealthy []int  `json:"unhealthy_procs"`
	}
	getJSON(t, ts.URL+"/v1/healthz", &hz) // getJSON asserts status 200
	if hz.Status != "degraded" || len(hz.Unhealthy) != 1 || hz.Unhealthy[0] != 0 {
		t.Fatalf("healthz while breaker open: %+v, want degraded [0]", hz)
	}

	// Stats and metrics surface the same condition.
	st := srv.sched.Stats()
	if st.BreakerTrips != 1 || st.PerProcHealthy[0] || !st.PerProcHealthy[1] {
		t.Fatalf("stats: trips=%d healthy=%v", st.BreakerTrips, st.PerProcHealthy)
	}
	raw := getText(t, ts.URL+"/v1/metrics")
	for _, want := range []string{
		`apt_breaker_trips_total 1`,
		`apt_proc_healthy{proc="0"} 0`,
		`apt_proc_healthy{proc="1"} 1`,
		`apt_failed_total 2`,
	} {
		if !strings.Contains(raw, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestBreakerRecoveryOverHTTP uses a bounded crash window: after it ends
// and the cooldown fires, the breaker goes half-open (healthz still
// "degraded"), a probe task succeeds on the recovered processor, the
// breaker closes and healthz returns to "ok" — the full trip→recover
// cycle through the API.
func TestBreakerRecoveryOverHTTP(t *testing.T) {
	cfg := faultCfg()
	cfg.retries = 1
	cfg.chaos = "crash:0:0:200"
	_, ts := testServer(t, cfg)

	for i := 0; i < 2; i++ {
		var out taskResponse
		postJSON(t, ts.URL+"/v1/submit", taskRequest{Name: "pin0", EstMs: []float64{1, 1000}}, &out)
		if out.Err == "" {
			t.Fatalf("task %d survived the crash window", i)
		}
	}
	var procs struct {
		Procs []online.ProcHealth `json:"procs"`
	}
	getJSON(t, ts.URL+"/v1/procs", &procs)
	if procs.Procs[0].State == "closed" {
		t.Fatalf("breaker not tripped: %+v", procs.Procs[0])
	}
	// Wait out both the crash window and the cooldown, then probe.
	time.Sleep(250 * time.Millisecond)
	waitCond(t, 5*time.Second, "probe-ready", func() bool {
		getJSON(t, ts.URL+"/v1/procs", &procs)
		return procs.Procs[0].State == "half-open"
	})
	var hz struct {
		Status string `json:"status"`
	}
	getJSON(t, ts.URL+"/v1/healthz", &hz)
	if hz.Status != "degraded" {
		t.Fatalf("healthz while half-open = %q, want degraded", hz.Status)
	}
	var out taskResponse
	postJSON(t, ts.URL+"/v1/submit", taskRequest{Name: "probe", EstMs: []float64{1, 1000}}, &out)
	if out.Err != "" || out.Proc != 0 {
		t.Fatalf("probe: %+v, want success on proc 0", out)
	}
	getJSON(t, ts.URL+"/v1/procs", &procs)
	if procs.Procs[0].State != "closed" {
		t.Fatalf("breaker did not close after probe: %+v", procs.Procs[0])
	}
	getJSON(t, ts.URL+"/v1/healthz", &hz)
	if hz.Status != "ok" {
		t.Fatalf("healthz after recovery = %q, want ok", hz.Status)
	}
}

// TestRetriesOverHTTP: proc 0 always crashes; the retry budget moves the
// task to proc 1 and the response reports the attempt count.
func TestRetriesOverHTTP(t *testing.T) {
	cfg := faultCfg()
	cfg.alpha = 1000 // admit proc 1 as an alternative
	cfg.breakerFails = 0
	cfg.chaos = "crash:0:0:60000"
	_, ts := testServer(t, cfg)

	var out taskResponse
	postJSON(t, ts.URL+"/v1/submit", taskRequest{Name: "flappy", EstMs: []float64{1, 5}}, &out)
	if out.Err != "" {
		t.Fatalf("task failed despite retries: %+v", out)
	}
	if out.Attempts < 2 || out.Proc != 1 {
		t.Fatalf("got %+v, want attempts >= 2 on proc 1", out)
	}
}

// TestChaosConfigValidation: malformed fault flags refuse to boot.
func TestChaosConfigValidation(t *testing.T) {
	cfg := faultCfg()
	cfg.speed = 1000
	cfg.maxBody = 1 << 20
	cfg.chaos = "explode:everything"
	if _, err := newServer(cfg); err == nil {
		t.Fatal("malformed chaos spec accepted")
	}
	cfg = faultCfg()
	cfg.speed = 1000
	cfg.maxBody = 1 << 20
	cfg.timeoutMs = -1
	if _, err := newServer(cfg); err == nil {
		t.Fatal("negative -timeout accepted")
	}
}

// TestChaosRuleNamesSchedulerProcessor: a rule naming a processor the
// scheduler lacks would never fire, so the server refuses it at start-up,
// naming the rule and the processor count.
func TestChaosRuleNamesSchedulerProcessor(t *testing.T) {
	cfg := faultCfg()
	cfg.speed = 1000
	cfg.maxBody = 1 << 20
	cfg.chaos = "kind:mm:0.5,crash:7:0:0"
	srv, err := newServer(cfg)
	if err == nil {
		srv.sched.Close()
		t.Fatal("chaos rule naming processor 7 accepted on 2 processors")
	}
	if !strings.Contains(err.Error(), "rule 1 ") || !strings.Contains(err.Error(), "2 processors") {
		t.Errorf("error %q does not name rule 1 and 2 processors", err)
	}
}
