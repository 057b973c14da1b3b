// Online host: the APT rule applied to real work at runtime, not in
// simulation.
//
// Default mode — in-process demo. A host process dispatches a burst of
// mixed tasks across three worker "processors" whose relative speeds
// mirror the paper's CPU/GPU/FPGA lookup table (scaled down so the demo
// runs instantly). Compare α=1 (MET-style strict waiting) against α=4:
// the flexible scheduler finishes the burst faster by overflowing
// contended work onto alternative workers within the threshold. The demo
// then submits a task DAG with SubmitGraph (dependencies release as
// predecessors finish) and prints the live sojourn / queue-wait
// percentiles the sharded scheduler collects. A final fault-tolerance
// pass injects crashes on one processor and shows retries, attempt
// counts and the circuit breaker tripping and recovering.
//
//	go run ./examples/online-host
//
// Load-generator mode — point it at a running aptserve:
//
//	go run ./cmd/aptserve -addr :8080 -procs 3 -speed 1000 &
//	go run ./examples/online-host -url http://localhost:8080 -n 200 -c 8
//
// posts n tasks from c concurrent clients to /v1/submit, fetches
// /v1/stats for the server-side percentile summary, then scrapes
// /v1/metrics and prints the Prometheus exposition — so the example
// doubles as a manual check of the ops surface.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"repro/online"
)

// taskKind mirrors a lookup-table row: estimated cost per processor in
// milliseconds (also used as the simulated execution sleep).
type taskKind struct {
	name string
	est  []float64 // CPU, GPU, FPGA
}

var kinds = []taskKind{
	{"matmul", []float64{26, 0.1, 95}}, // GPU-dominant, like the paper's matmul
	{"nw", []float64{1.1, 1.5, 4.0}},   // CPU-best with a close GPU alternative
	{"bfs", []float64{3.3, 1.7, 1.1}},  // FPGA-best with a close GPU alternative
	{"cd", []float64{1.7, 0.3, 0.01}},  // FPGA-dominant
}

func sleepRun(est []float64) func(context.Context, online.ProcID) error {
	return func(ctx context.Context, p online.ProcID) error {
		select {
		case <-time.After(time.Duration(est[p] * float64(time.Millisecond))):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func runBurst(alpha float64, tasks int) (time.Duration, online.Stats, error) {
	s, err := online.New(3, alpha)
	if err != nil {
		return 0, online.Stats{}, err
	}
	s.Start()
	defer s.Close()

	start := time.Now()
	var handles []*online.Handle
	for i := 0; i < tasks; i++ {
		k := kinds[i%len(kinds)]
		h, err := s.Submit(online.Task{
			Name:  fmt.Sprintf("%s-%d", k.name, i),
			EstMs: k.est,
			Run:   sleepRun(k.est),
		})
		if err != nil {
			return 0, online.Stats{}, err
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		if res := <-h.Done; res.Err != nil {
			return 0, online.Stats{}, res.Err
		}
	}
	return time.Since(start), s.Stats(), nil
}

// runGraph submits a small imaging-style pipeline as one DAG: a decode
// fans out to two independent filters which join into a final encode.
func runGraph() error {
	s, err := online.New(3, 4)
	if err != nil {
		return err
	}
	s.Start()
	defer s.Close()

	node := func(name string, est []float64, deps ...int) online.GraphTask {
		return online.GraphTask{
			Task: online.Task{Name: name, EstMs: est, Run: sleepRun(est)},
			Deps: deps,
		}
	}
	h, err := s.SubmitGraph([]online.GraphTask{
		node("decode", []float64{1.0, 2.0, 4.0}),
		node("denoise", []float64{5.0, 0.5, 3.0}, 0),
		node("resize", []float64{0.8, 1.2, 2.0}, 0),
		node("encode", []float64{1.5, 1.0, 6.0}, 1, 2),
	})
	if err != nil {
		return err
	}
	res := <-h.Done
	if res.Err != nil {
		return res.Err
	}
	fmt.Println("\ngraph pipeline (decode → {denoise, resize} → encode):")
	for _, r := range res.Results {
		fmt.Printf("  %-8s ran on processor %d (alt=%v)\n", r.Task.Name, r.Proc, r.Alt)
	}
	st := s.Stats()
	fmt.Printf("  live latency: sojourn p50 %.2f ms p99 %.2f ms, queue-wait p99 %.2f ms\n",
		st.Sojourn.P50Ms, st.Sojourn.P99Ms, st.QueueWait.P99Ms)
	return nil
}

// runFaults demonstrates the fault-tolerance layer: a flaky "GPU" fails
// every first attempt for a while, tripping its circuit breaker; retries
// with seeded backoff move work to the alternatives until the breaker's
// half-open probe finds the processor healthy again.
func runFaults() error {
	s, err := online.NewWithConfig(online.Config{
		Procs:            3,
		Alpha:            8,
		DefaultTimeoutMs: 250,
		Retry: online.RetryPolicy{
			MaxAttempts: 4,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  8 * time.Millisecond,
			JitterSeed:  1,
		},
		Breaker: &online.BreakerConfig{
			FailureThreshold: 2,
			Cooldown:         30 * time.Millisecond,
		},
	})
	if err != nil {
		return err
	}
	s.Start()
	defer s.Close()

	// Injected faults: the GPU (proc 1) crashes every Run for the first
	// 40 ms of the demo.
	fp, err := online.ParseFaultPlan("crash:1:0:40", 7)
	if err != nil {
		return err
	}
	fp.Begin()

	fmt.Println("\nfault demo (proc 1 crashing for 40 ms, retries + breaker on):")
	var handles []*online.Handle
	for i := 0; i < 12; i++ {
		k := kinds[i%len(kinds)]
		name := fmt.Sprintf("%s-%d", k.name, i)
		h, err := s.Submit(online.Task{
			Name:  name,
			EstMs: k.est,
			Run:   fp.Wrap(name, sleepRun(k.est)),
		})
		if err != nil {
			return err
		}
		handles = append(handles, h)
		time.Sleep(5 * time.Millisecond) // spread arrivals across the window
	}
	for _, h := range handles {
		res := <-h.Done
		if res.Err != nil {
			fmt.Printf("  %-10s FAILED after %d attempts: %v\n", res.Task.Name, res.Attempts, res.Err)
		} else if res.Attempts > 1 {
			fmt.Printf("  %-10s recovered on attempt %d (processor %d)\n", res.Task.Name, res.Attempts, res.Proc)
		}
	}
	st := s.Stats()
	fmt.Printf("  retries %d, timeouts %d, breaker trips %d, failed %d/%d\n",
		st.Retries, st.Timeouts, st.BreakerTrips, st.Failed, st.Submitted)
	for _, ph := range s.ProcHealth() {
		fmt.Printf("  proc %d: %-9s (healthy=%v, trips=%d)\n", ph.Proc, ph.State, ph.Healthy, ph.Trips)
	}
	return nil
}

// loadGenerate drives a running aptserve over HTTP: n tasks from c
// concurrent clients, then the server-side /v1/stats summary.
func loadGenerate(url string, n, c int) error {
	type submitReq struct {
		Name  string    `json:"name"`
		EstMs []float64 `json:"est_ms"`
	}
	client := &http.Client{Timeout: 30 * time.Second}
	var wg sync.WaitGroup
	errCh := make(chan error, c)
	start := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += c {
				k := kinds[i%len(kinds)]
				body, _ := json.Marshal(submitReq{Name: fmt.Sprintf("%s-%d", k.name, i), EstMs: k.est})
				resp, err := client.Post(url+"/v1/submit", "application/json", bytes.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("submit %d: status %d", i, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return err
	default:
	}

	resp, err := client.Get(url + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st online.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	fmt.Printf("%d tasks over HTTP in %.1f ms (%.0f tasks/s, %d clients)\n",
		n, float64(elapsed.Microseconds())/1000, float64(n)/elapsed.Seconds(), c)
	fmt.Printf("server: completed %d, alt assignments %d, per-proc %v, α %.2f\n",
		st.Completed, st.AltAssignments, st.PerProc, st.Alpha)
	fmt.Printf("sojourn    p50 %8.3f ms  p95 %8.3f ms  p99 %8.3f ms\n",
		st.Sojourn.P50Ms, st.Sojourn.P95Ms, st.Sojourn.P99Ms)
	fmt.Printf("queue wait p50 %8.3f ms  p95 %8.3f ms  p99 %8.3f ms\n",
		st.QueueWait.P50Ms, st.QueueWait.P95Ms, st.QueueWait.P99Ms)

	// Final ops check: what a Prometheus scrape of this server would see.
	mresp, err := client.Get(url + "/v1/metrics")
	if err != nil {
		return err
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		return err
	}
	fmt.Printf("\n/v1/metrics scrape:\n%s", body)
	return nil
}

func main() {
	url := flag.String("url", "", "aptserve base URL; when set, run as an HTTP load generator")
	n := flag.Int("n", 200, "load generator: number of tasks")
	c := flag.Int("c", 8, "load generator: concurrent clients")
	flag.Parse()

	if *url != "" {
		if err := loadGenerate(*url, *n, *c); err != nil {
			log.Fatal(err)
		}
		return
	}

	const tasks = 40
	for _, alpha := range []float64{1, 4, 16} {
		elapsed, stats, err := runBurst(alpha, tasks)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("α=%-3g %d tasks in %8.1f ms  (alternative assignments: %d, per-proc %v)\n",
			alpha, tasks, float64(elapsed.Microseconds())/1000, stats.AltAssignments, stats.PerProc)
	}
	fmt.Println("\nα=1 waits for each task's best worker (MET); larger α overflows")
	fmt.Println("contended work within the threshold, shortening the burst makespan.")
	if err := runGraph(); err != nil {
		log.Fatal(err)
	}
	if err := runFaults(); err != nil {
		log.Fatal(err)
	}
}
