package online

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ErrInjected marks a task failure manufactured by a FaultPlan rather than
// the task's own Run. Chaos tests and the -chaos smoke distinguish it from
// organic failures with errors.Is.
var ErrInjected = errors.New("online: injected fault")

// FaultKind distinguishes injected-fault rule types.
type FaultKind int

const (
	// ProcCrash fails every attempt on one processor with ErrInjected
	// during a window — a processor returning garbage fast.
	ProcCrash FaultKind = iota
	// ProcHang blocks attempts on one processor during a window until the
	// attempt's context is cancelled (timeout or shutdown) — a processor
	// that silently wedges. Attempts without a timeout hang until Close.
	ProcHang
	// ProcFlaky fails attempts on one processor with probability Prob,
	// regardless of window.
	ProcFlaky
	// KindFlaky fails attempts of tasks whose name starts with Name with
	// probability Prob, on any processor — a bad task class rather than a
	// bad processor.
	KindFlaky
	// ProcLatency adds a fixed delay to every attempt on one processor
	// (cancellable, so a timeout still fires on schedule).
	ProcLatency
)

// String names the kind, matching the ParseFaultPlan spec syntax.
func (k FaultKind) String() string {
	switch k {
	case ProcCrash:
		return "crash"
	case ProcHang:
		return "hang"
	case ProcFlaky:
		return "flaky"
	case KindFlaky:
		return "kind"
	case ProcLatency:
		return "lat"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultRule is one injection rule of a FaultPlan.
type FaultRule struct {
	Kind FaultKind
	// Proc is the affected processor (all rules except KindFlaky).
	Proc ProcID
	// Name is the task-name prefix a KindFlaky rule matches.
	Name string
	// StartMs and EndMs bound crash/hang windows in milliseconds since
	// Begin; EndMs <= 0 means open-ended.
	StartMs, EndMs float64
	// Prob is the per-attempt failure probability (ProcFlaky, KindFlaky).
	Prob float64
	// DelayMs is the added latency per attempt (ProcLatency).
	DelayMs float64
}

func (r FaultRule) validate(i int) error {
	switch r.Kind {
	case ProcCrash, ProcHang, ProcLatency, ProcFlaky:
		if r.Proc < 0 {
			return fmt.Errorf("online: fault rule %d has negative processor %d", i, r.Proc)
		}
	case KindFlaky:
		if r.Name == "" {
			return fmt.Errorf("online: fault rule %d (kind) needs a task-name prefix", i)
		}
		// A padded prefix such as " matmul" matches no task name.
		if strings.TrimSpace(r.Name) != r.Name {
			return fmt.Errorf("online: fault rule %d (kind) prefix %q has leading or trailing white space", i, r.Name)
		}
	default:
		return fmt.Errorf("online: fault rule %d has unknown kind %d", i, int(r.Kind))
	}
	switch r.Kind {
	case ProcCrash, ProcHang:
		if r.StartMs < 0 || math.IsNaN(r.StartMs) || math.IsInf(r.StartMs, 0) {
			return fmt.Errorf("online: fault rule %d start %v must be non-negative and finite", i, r.StartMs)
		}
		if math.IsNaN(r.EndMs) || r.EndMs > 0 && r.EndMs <= r.StartMs {
			return fmt.Errorf("online: fault rule %d window [%v, %v) is empty", i, r.StartMs, r.EndMs)
		}
	case ProcFlaky, KindFlaky:
		if !(r.Prob > 0 && r.Prob <= 1) {
			return fmt.Errorf("online: fault rule %d probability %v must be in (0, 1]", i, r.Prob)
		}
	case ProcLatency:
		// Past MaxDelayMs the delay overflows a time.Duration and the
		// timer fires at once.
		if !(r.DelayMs > 0) || r.DelayMs > MaxDelayMs {
			return fmt.Errorf("online: fault rule %d delay %v must be positive and at most %v ms", i, r.DelayMs, MaxDelayMs)
		}
	}
	return nil
}

// MaxDelayMs is the longest delay, in milliseconds, a time.Duration holds:
// a longer one converts to a negative Duration, and a timer or sleep over
// it ends at once.
const MaxDelayMs = float64(math.MaxInt64 / int64(time.Millisecond))

// FaultPlan injects failures into task execution for chaos testing, in the
// spirit of internal/perturb's degradation schedules but acting on the
// live scheduler: wrap each task's Run with Wrap and the plan decides —
// deterministically from its seed and a draw counter — whether the attempt
// crashes, hangs, gains latency, or proceeds. A FaultPlan is immutable
// after construction and safe for concurrent use.
type FaultPlan struct {
	seed    uint64
	rules   []FaultRule
	draws   atomic.Uint64
	startNs atomic.Int64 // window anchor; set once by Begin
}

// NewFaultPlan validates the rules and returns a plan seeded for
// deterministic probability draws.
func NewFaultPlan(seed int64, rules []FaultRule) (*FaultPlan, error) {
	p := &FaultPlan{seed: uint64(seed), rules: make([]FaultRule, len(rules))}
	copy(p.rules, rules)
	for i, r := range p.rules {
		if err := r.validate(i); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Rules returns a copy of the plan's rules.
func (fp *FaultPlan) Rules() []FaultRule {
	out := make([]FaultRule, len(fp.rules))
	copy(out, fp.rules)
	return out
}

// Empty reports whether the plan holds no rules.
func (fp *FaultPlan) Empty() bool { return fp == nil || len(fp.rules) == 0 }

// Begin anchors the plan's crash/hang windows at the current instant (the
// first call wins; later calls are no-ops). Wrap anchors lazily on the
// first attempt if Begin was never called.
func (fp *FaultPlan) Begin() {
	fp.startNs.CompareAndSwap(0, time.Now().UnixNano())
}

// elapsedMs returns milliseconds since the window anchor, anchoring now if
// needed.
func (fp *FaultPlan) elapsedMs() float64 {
	ns := fp.startNs.Load()
	if ns == 0 {
		fp.Begin()
		ns = fp.startNs.Load()
	}
	return durMs(time.Duration(time.Now().UnixNano() - ns))
}

// flip draws a deterministic pseudo-random number in [0, 1) from the seed
// and a global draw counter. The sequence of draws depends on attempt
// interleaving, but the stream itself is reproducible for a fixed seed.
func (fp *FaultPlan) flip() float64 {
	n := fp.draws.Add(1)
	return float64(splitmix64(fp.seed^(n*0x9e3779b97f4a7c15))>>11) / float64(uint64(1)<<53)
}

func inWindow(at, start, end float64) bool {
	return at >= start && (end <= 0 || at < end)
}

// Wrap decorates one task's Run with the plan's injections. The returned
// function applies, in order: injected latency, crash/hang windows, then
// the probabilistic flaky rules; if nothing fires it calls the original
// Run (a nil run succeeds after injections pass, like a nil Task.Run).
func (fp *FaultPlan) Wrap(name string, run func(context.Context, ProcID) error) func(context.Context, ProcID) error {
	if fp.Empty() {
		return run
	}
	return func(ctx context.Context, p ProcID) error {
		at := fp.elapsedMs()
		for i := range fp.rules {
			r := &fp.rules[i]
			switch r.Kind {
			case ProcLatency:
				if r.Proc == p {
					t := time.NewTimer(time.Duration(r.DelayMs * float64(time.Millisecond)))
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return ctx.Err()
					}
				}
			case ProcCrash:
				if r.Proc == p && inWindow(at, r.StartMs, r.EndMs) {
					return fmt.Errorf("%w: crash on processor %d", ErrInjected, p)
				}
			case ProcHang:
				if r.Proc == p && inWindow(at, r.StartMs, r.EndMs) {
					<-ctx.Done()
					return ctx.Err()
				}
			case ProcFlaky:
				if r.Proc == p && fp.flip() < r.Prob {
					return fmt.Errorf("%w: flaky processor %d", ErrInjected, p)
				}
			case KindFlaky:
				if strings.HasPrefix(name, r.Name) && fp.flip() < r.Prob {
					return fmt.Errorf("%w: flaky task kind %q", ErrInjected, r.Name)
				}
			}
		}
		if run == nil {
			return nil
		}
		return run(ctx, p)
	}
}

// ParseFaultPlan parses a comma-separated fault spec, one rule per item:
//
//	crash:P:START:END  attempts on processor P fail during [START, END) ms
//	hang:P:START:END   attempts on processor P block until cancelled
//	flaky:P:PROB       attempts on processor P fail with probability PROB
//	kind:PREFIX:PROB   tasks named PREFIX* fail with probability PROB
//	lat:P:MS           attempts on processor P gain MS ms of latency
//
// END <= 0 leaves a crash/hang window open-ended. Processors are decimal
// integers, and a kind PREFIX may not begin or end with white space. Example: "flaky:0:0.6,crash:1:0:1500,lat:2:5". Probability
// draws are seeded, so a fixed seed reproduces the same injection stream
// under the same attempt interleaving. An empty spec yields an empty plan.
func ParseFaultPlan(spec string, seed int64) (*FaultPlan, error) {
	var rules []FaultRule
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.Split(item, ":")
		bad := func() (*FaultPlan, error) {
			return nil, fmt.Errorf("online: malformed fault rule %q (want crash:P:START:END, hang:P:START:END, flaky:P:PROB, kind:PREFIX:PROB or lat:P:MS)", item)
		}
		if parts[0] == "kind" && len(parts) == 3 {
			prob, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return bad()
			}
			rules = append(rules, FaultRule{Kind: KindFlaky, Name: parts[1], Prob: prob})
			continue
		}
		// Every other rule names a processor, then its window, probability
		// or delay.
		var r FaultRule
		var nums []*float64
		switch parts[0] {
		case "crash":
			r.Kind, nums = ProcCrash, []*float64{&r.StartMs, &r.EndMs}
		case "hang":
			r.Kind, nums = ProcHang, []*float64{&r.StartMs, &r.EndMs}
		case "flaky":
			r.Kind, nums = ProcFlaky, []*float64{&r.Prob}
		case "lat":
			r.Kind, nums = ProcLatency, []*float64{&r.DelayMs}
		default:
			return bad()
		}
		if len(parts) != 2+len(nums) {
			return bad()
		}
		p, err := strconv.ParseInt(parts[1], 10, 32)
		if err != nil {
			return bad()
		}
		r.Proc = ProcID(p)
		for i, dst := range nums {
			v, err := strconv.ParseFloat(parts[2+i], 64)
			if err != nil {
				return bad()
			}
			*dst = v
		}
		rules = append(rules, r)
	}
	return NewFaultPlan(seed, rules)
}
