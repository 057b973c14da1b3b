package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// httpConns keep-alive connections drive the closed loop, one client
	// goroutine each.
	httpConns    = 2
	httpWarmup   = 2000
	scrapeEvery  = 100 * time.Millisecond
	httpTailP    = 99
	serverProcs  = 3
	serverBootTO = 20 * time.Second
	serverStopTO = 10 * time.Second
)

// aptserve is one running server process.
type aptserve struct {
	cmd  *exec.Cmd
	base string
	done chan error // receives Wait's result once the process has ended
	// accepted counts the submits the client saw succeed.
	accepted int
	stopped  sync.Once
}

// startServer execs the binary on a free loopback port and waits until
// /healthz answers.
func startServer(bin string) (*aptserve, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-procs", strconv.Itoa(serverProcs))
	// A benchmark killed from outside takes its server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &aptserve{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(serverBootTO)
	for {
		if res, err := hc.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, res.Body)
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("aptserve exited during start-up: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("aptserve not healthy after %v", serverBootTO)
		}
	}
}

// stop sends SIGTERM, which drains and exits the server, and waits for
// the process to end; it kills a server that does not stop in time.
// Later calls return at once.
func (s *aptserve) stop() {
	s.stopped.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-s.done:
		case <-time.After(serverStopTO):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
	})
}

// checkStats compares the server's counters with the client's count.
func (s *aptserve) checkStats(o *outcome) {
	var st struct {
		Submitted int `json:"submitted"`
		Completed int `json:"completed"`
		Failed    int `json:"failed"`
	}
	res, err := http.Get(s.base + "/v1/stats")
	if err == nil {
		err = json.NewDecoder(res.Body).Decode(&st)
		res.Body.Close()
	}
	if err != nil {
		o.fail(1, "GET /v1/stats: %v", err)
		return
	}
	if st.Submitted != s.accepted || st.Completed != s.accepted || st.Failed != 0 {
		o.fail(1, "/v1/stats: submitted %d, completed %d, failed %d; client saw %d succeed",
			st.Submitted, st.Completed, st.Failed, s.accepted)
	}
}

// taskResponse is the part of /v1/submit's reply the benchmark reads.
type taskResponse struct {
	Alt         bool    `json:"alt"`
	SojournMs   float64 `json:"sojourn_ms"`
	QueueWaitMs float64 `json:"queue_wait_ms"`
	Err         string  `json:"err"`
}

// submitBodies encodes the live mix with instant bodies (actual_ms 0), so
// placement does not matter and the request path is what is measured.
func submitBodies() ([][]byte, error) {
	out := make([][]byte, len(liveMix))
	for i, k := range liveMix {
		b, err := json.Marshal(map[string]any{
			"name": k.name, "est_ms": k.estMs, "actual_ms": make([]float64, len(k.estMs)),
		})
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// request is one submit as the client saw it.
type request struct {
	start, end time.Time
	resp       taskResponse
}

// scrape is one GET /v1/metrics.
type scrape struct {
	start, end time.Time
	queued     float64 // apt_queue_depth
}

// conn is one client connection's closed loop.
type conn struct {
	hc      *http.Client
	base    string
	bodies  [][]byte
	rng     *rand.Rand
	reqs    []request
	scrapes []scrape
	failed  int
	errs    []string
}

func newConn(base string, bodies [][]byte, seed int64) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{hc: &http.Client{Transport: tr}, base: base, bodies: bodies, rng: rand.New(rand.NewSource(seed))}
}

func (c *conn) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < maxProblems {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

func (c *conn) submit() {
	body := c.bodies[c.rng.Intn(len(c.bodies))]
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/submit", bytes.NewReader(body))
	if err != nil {
		c.fail("%v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	res, err := c.hc.Do(req)
	if err != nil {
		c.fail("POST /v1/submit: %v", err)
		return
	}
	b, err := io.ReadAll(res.Body)
	res.Body.Close()
	r := request{start: t0, end: time.Now()}
	switch {
	case err != nil:
		c.fail("POST /v1/submit: %v", err)
	case res.StatusCode != http.StatusOK:
		c.fail("POST /v1/submit: status %d: %s", res.StatusCode, bytes.TrimSpace(b))
	default:
		if err := json.Unmarshal(b, &r.resp); err != nil {
			c.fail("POST /v1/submit: %v", err)
		} else if r.resp.Err != "" {
			c.fail("POST /v1/submit: task error %s", r.resp.Err)
		} else {
			c.reqs = append(c.reqs, r)
		}
	}
}

func (c *conn) scrape() {
	t0 := time.Now()
	res, err := c.hc.Get(c.base + "/v1/metrics")
	if err != nil {
		c.fail("GET /v1/metrics: %v", err)
		return
	}
	q, perr := queueDepth(res.Body)
	res.Body.Close()
	if perr != nil || res.StatusCode != http.StatusOK {
		c.fail("GET /v1/metrics: status %d, %v", res.StatusCode, perr)
		return
	}
	c.scrapes = append(c.scrapes, scrape{t0, time.Now(), q})
}

// queueDepth reads the apt_queue_depth gauge from a Prometheus text
// exposition, consuming the whole body.
func queueDepth(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	v, found := 0.0, false
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "apt_queue_depth "); ok {
			var err error
			if v, err = strconv.ParseFloat(strings.TrimSpace(rest), 64); err != nil {
				return 0, err
			}
			found = true
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if !found {
		return 0, errors.New("no apt_queue_depth gauge")
	}
	return v, nil
}

// httpPass is one closed-loop pass over every connection.
type httpPass struct {
	conns     []*conn
	elapsed   float64
	client    procDelta
	serverCPU float64
}

func (p *httpPass) merge(q *httpPass) {
	p.conns = append(p.conns, q.conns...)
	p.elapsed += q.elapsed
	p.client = p.client.plus(q.client)
	p.serverCPU += q.serverCPU
}

// rtts returns every successful submit's round trip in ms.
func (p *httpPass) rtts() []float64 {
	var out []float64
	for _, c := range p.conns {
		for _, r := range c.reqs {
			out = append(out, ms(r.end.Sub(r.start)))
		}
	}
	return out
}

// loop runs every connection's closed loop until n submits each (n > 0)
// or for d; connection 0 replaces one submit every scrapeEvery with a
// metrics scrape when scrapes is set.
func (s *aptserve) loop(o *outcome, bodies [][]byte, seed int64, n int, d time.Duration, scrapes bool) (*httpPass, error) {
	p := &httpPass{}
	for i := 0; i < httpConns; i++ {
		p.conns = append(p.conns, newConn(s.base, bodies, seed+int64(i)))
	}
	cpu0, err := procCPU(s.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	before := sampleProc()
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range p.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := start.Add(scrapeEvery)
			for k := 0; n > 0 && k < n || n == 0 && time.Since(start) < d; k++ {
				if scrapes && i == 0 && time.Now().After(next) {
					c.scrape()
					next = next.Add(scrapeEvery)
					continue
				}
				c.submit()
			}
			c.hc.CloseIdleConnections()
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start).Seconds()
	p.client = before.to(sampleProc())
	cpu1, err := procCPU(s.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	p.serverCPU = cpu1 - cpu0
	for _, c := range p.conns {
		s.accepted += len(c.reqs)
		o.attempted += int64(len(c.reqs) + c.failed)
		for _, e := range c.errs {
			o.fail(0, "%s", e)
		}
		o.failed += int64(c.failed)
	}
	return p, nil
}

func runHTTPSubmit(e *env, o *outcome) error {
	bodies, err := submitBodies()
	if err != nil {
		return err
	}
	var running *aptserve
	defer func() {
		if running != nil {
			running.stop()
		}
	}()
	discard := func(s *aptserve) {
		s.checkStats(o)
		s.stop()
	}
	srv, err := timeSetup(e, o, func() (*aptserve, error) {
		s, err := startServer(e.aptserve)
		if err != nil {
			return nil, err
		}
		running = s
		if _, err := s.loop(o, bodies, e.seed, httpWarmup/httpConns, 0, false); err != nil {
			return nil, err
		}
		return s, nil
	}, discard)
	if err != nil {
		return err
	}

	slice := int64(0)
	u, t := &httpPass{}, &httpPass{}
	err = measurePasses(e, o, u, t, func(d time.Duration) (*httpPass, error) {
		p, err := srv.loop(o, bodies, e.seed+slice*httpConns, 0, d, true)
		slice++
		if err != nil {
			return nil, err
		}
		o.measured += p.elapsed
		return p, nil
	})
	if err != nil {
		return err
	}
	rtt := u.rtts()
	n := float64(len(rtt))
	o.metric("throughput_per_s", n/u.elapsed)
	latencyMetrics(o, rtt, rtt, httpTailP)
	o.row("cpu_us_per_op", 1e6*u.serverCPU/n, "us")
	o.row("http.client_cpu_us_per_req", 1e6*u.client.cpuSec/n, "us")
	runtimeMetrics(o, u.client, n)
	if e.trace {
		httpLayers(o, t)
		overhead(o, median(rtt), median(t.rtts()))
	}
	srv.checkStats(o)
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	o.metric("proc.rss_peak_mb", rss)
	return nil
}

// httpLayers records a traced pass: the server's time inside the
// scheduler (its reported sojourn) against the round trip, the telemetry
// scrapes beside the submits, and a span per request and scrape.
func httpLayers(o *outcome, p *httpPass) {
	var rttSum, sojSum, qSum float64
	var rtt, overheadUs []float64
	alt := 0
	for ci, c := range p.conns {
		for i, r := range c.reqs {
			d := ms(r.end.Sub(r.start))
			rtt = append(rtt, d)
			overheadUs = append(overheadUs, 1e3*(d-r.resp.SojournMs))
			rttSum += d
			sojSum += r.resp.SojournMs
			qSum += r.resp.QueueWaitMs
			if r.resp.Alt {
				alt++
			}
			o.tr.add("http.submit", r.start, r.end, -1, int64(ci)<<32|int64(i))
		}
	}
	var scrapeMs []float64
	scrapeSum, backlog := 0.0, 0.0
	for _, c := range p.conns {
		for _, s := range c.scrapes {
			d := ms(s.end.Sub(s.start))
			scrapeMs = append(scrapeMs, d)
			scrapeSum += d
			backlog = max(backlog, s.queued)
			o.tr.add("telemetry.scrape", s.start, s.end, -1, -1)
		}
	}
	n := float64(len(rtt))
	rs, ov, ss := sorted(rtt), sorted(overheadUs), sorted(scrapeMs)
	o.row("http.rtt_ms_p50", percentile(rs, 50), "ms")
	o.row("http.rtt_ms_p99", percentile(rs, 99), "ms")
	o.row("http.server_overhead_us_p50", percentile(ov, 50), "us")
	o.row("http.server_cpu_us_per_req", 1e6*p.serverCPU/n, "us")
	o.row("telemetry.scrapes", float64(len(scrapeMs)), "count")
	o.row("telemetry.scrape_ms_p50", percentile(ss, 50), "ms")
	o.row("telemetry.scrape_ms_p95", percentile(ss, 95), "ms")
	o.metric("http.server_overhead_share", 100*(rttSum-sojSum)/rttSum)
	o.metric("telemetry.scrape_share", 100*scrapeSum/1e3/p.elapsed)
	o.metric("online.alt_share", 100*float64(alt)/n)
	o.metric("online.queue_wait_share", 100*qSum/sojSum)
	o.metric("online.backlog_max", backlog)
}
