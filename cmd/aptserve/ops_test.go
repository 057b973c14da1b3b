package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/online"
)

// submitN pushes n fast tasks through /v1/submit so the scheduler has a
// latency distribution to export.
func submitN(t *testing.T, url string, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 4 {
				var out taskResponse
				postJSON(t, url+"/v1/submit", taskRequest{
					Name:  fmt.Sprintf("load-%d", i),
					EstMs: []float64{1 + float64(i%3), 1 + float64((i+1)%3), 1 + float64((i+2)%3)},
				}, &out)
				if out.Err != "" {
					t.Errorf("task error: %s", out.Err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestV1MetricsExposition scrapes /v1/metrics after real traffic and
// parses the text format end to end: content type, counter values, and
// histogram bucket monotonicity with le="+Inf" == _count.
func TestV1MetricsExposition(t *testing.T) {
	_, ts := testServer(t, config{})
	const n = 40
	submitN(t, ts.URL, n)

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}

	type hist struct {
		les  []float64 // le values in order, +Inf as Inf
		cums []float64
		sum  float64
		cnt  float64
	}
	samples := map[string]float64{}
	hists := map[string]*hist{}
	getHist := func(name string) *hist {
		if hists[name] == nil {
			hists[name] = &hist{}
		}
		return hists[name]
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		key := line[:sp]
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		switch {
		case strings.Contains(key, "_bucket{le="):
			name := key[:strings.Index(key, "_bucket")]
			leStr := key[strings.Index(key, `le="`)+4 : strings.LastIndex(key, `"`)]
			h := getHist(name)
			if leStr == "+Inf" {
				h.les = append(h.les, infFloat())
			} else {
				le, err := strconv.ParseFloat(leStr, 64)
				if err != nil {
					t.Fatalf("bad le %q: %v", leStr, err)
				}
				h.les = append(h.les, le)
			}
			h.cums = append(h.cums, v)
		case strings.HasSuffix(key, "_sum"):
			getHist(strings.TrimSuffix(key, "_sum")).sum = v
		case strings.HasSuffix(key, "_count"):
			getHist(strings.TrimSuffix(key, "_count")).cnt = v
		default:
			samples[key] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if got := samples["apt_submitted_total"]; got != n {
		t.Errorf("apt_submitted_total = %v, want %d", got, n)
	}
	if got := samples["apt_completed_total"]; got != n {
		t.Errorf("apt_completed_total = %v, want %d", got, n)
	}
	if got := samples["apt_alpha"]; got != 4 {
		t.Errorf("apt_alpha = %v, want 4", got)
	}
	if samples["apt_uptime_ms"] <= 0 {
		t.Errorf("apt_uptime_ms = %v, want > 0", samples["apt_uptime_ms"])
	}
	var perProc float64
	for p := 0; p < 3; p++ {
		perProc += samples[fmt.Sprintf(`apt_proc_completed_total{proc="%d"}`, p)]
	}
	if perProc != n {
		t.Errorf("per-proc completions sum to %v, want %d", perProc, n)
	}

	for _, name := range []string{"apt_sojourn_ms", "apt_queue_wait_ms"} {
		h := hists[name]
		if h == nil || len(h.les) < 2 {
			t.Fatalf("histogram %s missing or too small: %+v", name, h)
		}
		for i := 1; i < len(h.cums); i++ {
			if h.cums[i] < h.cums[i-1] {
				t.Errorf("%s bucket %d not monotone: %v < %v", name, i, h.cums[i], h.cums[i-1])
			}
			if !(h.les[i] > h.les[i-1]) {
				t.Errorf("%s le %d not increasing: %v after %v", name, i, h.les[i], h.les[i-1])
			}
		}
		last := len(h.cums) - 1
		if h.les[last] != infFloat() {
			t.Errorf("%s last bucket not +Inf", name)
		}
		if h.cums[last] != h.cnt || h.cnt != n {
			t.Errorf("%s +Inf=%v count=%v, want both %d", name, h.cums[last], h.cnt, n)
		}
		if name == "apt_sojourn_ms" && h.sum <= 0 {
			t.Errorf("%s sum = %v, want > 0", name, h.sum)
		}
	}
}

func infFloat() float64 {
	inf, _ := strconv.ParseFloat("+Inf", 64)
	return inf
}

// TestErrorEnvelope: every /v1 failure mode answers with the JSON
// envelope {"error","code"} and the contract's status code.
func TestErrorEnvelope(t *testing.T) {
	_, ts := testServer(t, config{maxBody: 256})
	big := strings.Repeat("x", 512)
	cases := []struct {
		name       string
		method     string
		url        string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"malformed json", "POST", "/v1/submit", `{"name":`, http.StatusBadRequest, "bad_request"},
		{"estimate mismatch", "POST", "/v1/submit", `{"name":"x","est_ms":[1]}`, http.StatusBadRequest, "bad_request"},
		{"estimate overflows to inf", "POST", "/v1/submit", `{"name":"x","est_ms":[1,1e999,1]}`, http.StatusBadRequest, "bad_request"},
		{"negative transfer", "POST", "/v1/submit", `{"name":"x","est_ms":[1,1,1],"xfer_ms":[0,-1,0]}`, http.StatusBadRequest, "bad_request"},
		{"zero estimate", "POST", "/v1/submit", `{"name":"x","est_ms":[1,0,1]}`, http.StatusBadRequest, "bad_request"},
		{"graph task with zero estimate", "POST", "/v1/graph", `{"tasks":[{"name":"a","est_ms":[1,0,1]}]}`, http.StatusBadRequest, "bad_request"},
		{"transfer overflows to inf", "POST", "/v1/submit", `{"name":"x","est_ms":[1,1,1],"xfer_ms":[0,0,1e999]}`, http.StatusBadRequest, "bad_request"},
		{"oversized body", "POST", "/v1/submit", `{"name":"` + big + `","est_ms":[1,1,1]}`, http.StatusRequestEntityTooLarge, "body_too_large"},
		{"graph cycle", "POST", "/v1/graph", `{"tasks":[{"name":"a","est_ms":[1,1,1],"deps":[1]},{"name":"b","est_ms":[1,1,1],"deps":[0]}]}`, http.StatusBadRequest, "bad_request"},
		{"empty graph", "POST", "/v1/graph", `{"tasks":[]}`, http.StatusBadRequest, "bad_request"},
		{"unknown endpoint", "GET", "/v1/nope", "", http.StatusNotFound, "not_found"},
		{"trace disabled", "GET", "/v1/trace", "", http.StatusNotFound, "trace_disabled"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.url, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.wantStatus {
				t.Errorf("status %d, want %d", resp.StatusCode, c.wantStatus)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("content type %q, want application/json", ct)
			}
			var env errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("error response not the JSON envelope: %v", err)
			}
			if env.Code != c.wantCode {
				t.Errorf("code %q, want %q", env.Code, c.wantCode)
			}
			if env.Error == "" {
				t.Error("empty error message")
			}
		})
	}
}

// TestQueueFull429: with one processor and a queue bound of 1, a third
// concurrent task must be refused with 429 + Retry-After.
func TestQueueFull429(t *testing.T) {
	srv, ts := testServer(t, config{procs: 1, alpha: 4, queueLimit: 1, speed: 1})
	// Two long-running tasks: whichever submits first occupies the single
	// processor, the other fills the queue's one slot and stays there.
	done := make(chan struct{}, 2)
	for _, name := range []string{"hog-a", "hog-b"} {
		name := name
		go func() {
			defer func() { done <- struct{}{} }()
			var out taskResponse
			postJSON(t, ts.URL+"/v1/submit", taskRequest{
				Name: name, EstMs: []float64{1}, ActualMs: []float64{800},
			}, &out)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.sched.Stats()
		if st.Queued >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	var env errorResponse
	resp := postJSON(t, ts.URL+"/v1/submit", taskRequest{
		Name: "rejected", EstMs: []float64{1},
	}, &env)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if env.Code != "queue_full" {
		t.Errorf("code %q, want queue_full", env.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("missing Retry-After header")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.shutdown(ctx)
	<-done
	<-done
}

// TestV1Trace: with tracing enabled, /v1/trace returns a Chrome trace
// JSON array whose exec slices carry the placement-quality args.
func TestV1Trace(t *testing.T) {
	_, ts := testServer(t, config{traceDepth: 8})
	submitN(t, ts.URL, 12)

	resp, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	var rows []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatalf("trace not a JSON array: %v", err)
	}
	slices := 0
	for _, r := range rows {
		if r["ph"] != "X" {
			continue
		}
		slices++
		args, ok := r["args"].(map[string]any)
		if !ok {
			t.Fatalf("slice missing args: %v", r)
		}
		for _, k := range []string{"queue_wait_ms", "est_ms", "best_est_ms", "actual_ms", "seq"} {
			if _, ok := args[k]; !ok {
				t.Errorf("slice args missing %q", k)
			}
		}
	}
	if slices != 8 { // ring keeps the last traceDepth of the 12
		t.Fatalf("trace has %d slices, want 8", slices)
	}
}

// TestHealthzDraining: /healthz flips to 503 once shutdown begins.
func TestHealthzDraining(t *testing.T) {
	srv, ts := testServer(t, config{})
	var health map[string]any
	getJSON(t, ts.URL+"/v1/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}
	close(srv.draining)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.shutdown(ctx)
}

// TestSnapshotCycleHTTP is the server-level zero-loss proof: kill a
// server mid-graph, assert the snapshot lands on disk, boot a second
// server from it and watch the captured tasks finish.
func TestSnapshotCycleHTTP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	cfg := config{procs: 1, alpha: 4, speed: 1, snapshotPath: path, maxBody: 1 << 20}
	srv, ts := testServer(t, cfg)

	// A slow chain: the entry runs ~2 s, so the drain bound below expires
	// with the successors still pending.
	go func() {
		var out graphResponse
		postJSON(t, ts.URL+"/v1/graph", graphRequest{Tasks: []graphTaskRequest{
			{taskRequest: taskRequest{Name: "slow", EstMs: []float64{1}, ActualMs: []float64{2000}}},
			{taskRequest: taskRequest{Name: "after1", EstMs: []float64{1}, ActualMs: []float64{0}}, Deps: []int{0}},
			{taskRequest: taskRequest{Name: "after2", EstMs: []float64{1}, ActualMs: []float64{0}}, Deps: []int{1}},
		}}, &out)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.sched.Stats().Submitted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("graph never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	srv.shutdown(ctx) // drain bound expires; snapshot written

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	var snapCount int
	{
		var sn struct {
			Version int `json:"version"`
			Graphs  []struct {
				Tasks []json.RawMessage `json:"tasks"`
			} `json:"graphs"`
		}
		if err := json.Unmarshal(data, &sn); err != nil {
			t.Fatalf("snapshot not JSON: %v", err)
		}
		if sn.Version != online.SnapshotVersion || len(sn.Graphs) != 1 {
			t.Fatalf("snapshot shape: %s", data)
		}
		snapCount = len(sn.Graphs[0].Tasks)
	}
	if snapCount != 3 { // slow was executing (at-least-once) + 2 successors
		t.Fatalf("snapshot carries %d tasks, want 3: %s", snapCount, data)
	}

	// Second life: restore on boot, everything completes, file consumed.
	cfg2 := cfg
	cfg2.speed = 1000 // replay fast
	srv2, err := newServer(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.restore(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("snapshot file not consumed after restore")
	}
	deadline = time.Now().Add(10 * time.Second)
	for srv2.sched.Stats().Completed < snapCount {
		if time.Now().After(deadline) {
			t.Fatalf("restored tasks never finished: %+v", srv2.sched.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	final := srv2.shutdown(ctx2)
	if final.Completed != snapCount || final.Submitted != snapCount {
		t.Fatalf("restored server stats %+v, want %d completed", final, snapCount)
	}
}

// TestRebuildRefusesOverlongSleeps restores snapshot tasks whose sleep, at
// -speed 1000, would be 1e13 ms, past what a time.Duration holds: from the
// payload's actual_ms, and from est_ms for a task without a payload. Both
// are refused; a task that sleeps 1 µs rebuilds.
func TestRebuildRefusesOverlongSleeps(t *testing.T) {
	srv, _ := testServer(t, config{})
	payload, err := json.Marshal(taskRequest{Name: "p", EstMs: []float64{1, 1, 1}, ActualMs: []float64{1, 1e16, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []online.SnapshotTask{
		{Name: "p", EstMs: []float64{1, 1, 1}, Payload: payload},
		{Name: "e", EstMs: []float64{1e16, 1, 1}},
	} {
		if _, err := srv.rebuild(st); err == nil || !strings.Contains(err.Error(), "time.Duration") {
			t.Errorf("rebuild(%s) = %v, want the sleep refused", st.Name, err)
		}
	}
	if _, err := srv.rebuild(online.SnapshotTask{Name: "ok", EstMs: []float64{1, 1, 1}}); err != nil {
		t.Errorf("rebuild of a 1 ms task: %v", err)
	}
}
