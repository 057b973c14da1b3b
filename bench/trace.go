package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the system. Calls and BusyNs are set on
// aggregate spans, which stand for many short calls inside the interval
// (policy.Select runs once per engine decision; a span per call would
// cost more than the call).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Req    int64  `json:"req"`    // spans of one request share it
	Calls  int64  `json:"calls,omitempty"`
	BusyNs int64  `json:"busy_ns,omitempty"`
}

// maxSpans bounds the spans one traced run keeps in memory; later spans
// are counted as dropped.
const maxSpans = 400_000

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type tracer struct {
	epoch   time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its index, or -1 when a nil tracer or
// the span bound drops it.
func (t *tracer) add(name string, start, end time.Time, parent int, req int64) int {
	return t.addAgg(name, start, end, parent, req, 0, 0)
}

func (t *tracer) addAgg(name string, start, end time.Time, parent int, req, calls int64, busy time.Duration) int {
	if t == nil {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		Parent: parent, Req: req, Calls: calls, BusyNs: busy.Nanoseconds(),
	})
	return len(t.spans) - 1
}

// end closes a span opened with an unknown end; i may be -1.
func (t *tracer) end(i int, at time.Time) {
	if t != nil && i >= 0 {
		t.spans[i].End = at.Sub(t.epoch).Nanoseconds()
	}
}

// write stores the spans as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		EpochNs  int64  `json:"epoch_unix_ns"`
		Dropped  int    `json:"dropped"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.epoch.UnixNano(), t.dropped, t.spans}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// procSample is what a pass reads from the Go runtime and the kernel at
// its start and end.
type procSample struct {
	mem runtime.MemStats
	cpu float64 // user+system CPU seconds of this process
}

func sampleProc() procSample {
	var s procSample
	runtime.ReadMemStats(&s.mem)
	s.cpu = selfCPU()
	return s
}

// procDelta is the change between two samples.
type procDelta struct {
	allocBytes float64
	gcCycles   float64
	gcPauseMs  float64
	cpuSec     float64
}

func (d procDelta) plus(e procDelta) procDelta {
	return procDelta{d.allocBytes + e.allocBytes, d.gcCycles + e.gcCycles, d.gcPauseMs + e.gcPauseMs, d.cpuSec + e.cpuSec}
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{
		allocBytes: float64(b.mem.TotalAlloc - a.mem.TotalAlloc),
		gcCycles:   float64(b.mem.NumGC - a.mem.NumGC),
		gcPauseMs:  float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6,
		cpuSec:     b.cpu - a.cpu,
	}
}

func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSec(ru.Utime) + tvSec(ru.Stime)
}

func tvSec(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns the user+system CPU seconds of another process, from
// /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %q", pid, s)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad CPU times in /proc/%d/stat", pid)
	}
	return (ut + st) / clockTicks, nil
}

// peakRSSMB returns a process's peak resident set (VmHWM) in MiB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}
