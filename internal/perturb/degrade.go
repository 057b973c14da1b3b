package perturb

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/platform"
)

// EventKind distinguishes platform-degradation event types.
type EventKind int

const (
	// ProcSlowdown stretches execution on one processor by Factor during
	// the window.
	ProcSlowdown EventKind = iota
	// ProcOffline stops one processor entirely during the window: work in
	// flight stalls (and resumes at window end), and the processor cannot
	// receive transfers.
	ProcOffline
	// LinkSlowdown divides the bandwidth of the (symmetric) link between
	// From and To by Factor during the window.
	LinkSlowdown
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case ProcSlowdown:
		return "slow"
	case ProcOffline:
		return "off"
	case LinkSlowdown:
		return "link"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one degradation episode over the half-open window
// [StartMs, EndMs).
type Event struct {
	Kind EventKind
	// Proc is the affected processor (ProcSlowdown, ProcOffline).
	Proc platform.ProcID
	// From and To are the link endpoints (LinkSlowdown); the event applies
	// to both directions.
	From, To platform.ProcID
	// StartMs and EndMs bound the window; EndMs must be finite (an
	// everlasting offline window would stall the simulation forever).
	StartMs, EndMs float64
	// Factor is the slowdown (>= 1): times within the window stretch by
	// this much. Ignored for ProcOffline.
	Factor float64
}

func (e Event) validate(i int) error {
	if e.StartMs < 0 || math.IsNaN(e.StartMs) || math.IsInf(e.StartMs, 0) {
		return fmt.Errorf("perturb: event %d start %v must be non-negative and finite", i, e.StartMs)
	}
	if !(e.EndMs > e.StartMs) || math.IsInf(e.EndMs, 0) {
		return fmt.Errorf("perturb: event %d window [%v, %v) must be non-empty and finite", i, e.StartMs, e.EndMs)
	}
	switch e.Kind {
	case ProcSlowdown, LinkSlowdown:
		if !(e.Factor >= 1) || math.IsInf(e.Factor, 0) {
			return fmt.Errorf("perturb: event %d factor %v must be finite and >= 1", i, e.Factor)
		}
		if e.Kind == LinkSlowdown && e.From == e.To {
			return fmt.Errorf("perturb: event %d degrades link %d<->%d, endpoints must differ", i, e.From, e.To)
		}
	case ProcOffline:
		// Factor ignored.
	default:
		return fmt.Errorf("perturb: event %d has unknown kind %d", i, int(e.Kind))
	}
	if e.Kind == LinkSlowdown {
		if e.From < 0 || e.To < 0 {
			return fmt.Errorf("perturb: event %d has negative link endpoint", i)
		}
	} else if e.Proc < 0 {
		return fmt.Errorf("perturb: event %d has negative processor %d", i, e.Proc)
	}
	return nil
}

// Schedule is a validated set of degradation events. It implements the sim
// engine's Degradation hook: piecewise-constant speed factors per processor
// and per link. Overlapping events compose multiplicatively; an offline
// window forces speed 0 regardless of slowdowns. A Schedule is immutable
// and safe for concurrent use.
type Schedule struct {
	events []Event
}

// NewSchedule validates the events and returns a Schedule. An empty event
// list is valid (no degradation).
func NewSchedule(events []Event) (*Schedule, error) {
	s := &Schedule{events: make([]Event, len(events))}
	copy(s.events, events)
	for i, e := range s.events {
		if err := e.validate(i); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// fold composes one event into a running (speed, until) pair at time at:
// active events multiply the speed in and bound the validity horizon at
// their end; future events bound it at their start.
func fold(e Event, at, speed, until float64) (float64, float64) {
	switch {
	case at >= e.StartMs && at < e.EndMs:
		if e.Kind == ProcOffline {
			speed = 0
		} else {
			speed /= e.Factor
		}
		if e.EndMs < until {
			until = e.EndMs
		}
	case at < e.StartMs:
		if e.StartMs < until {
			until = e.StartMs
		}
	}
	return speed, until
}

// ExecSpeed returns processor p's instantaneous speed at time at (1
// nominal, 0 offline) and the time until which that speed holds (+Inf when
// nothing further changes). Implements sim.Degradation.
func (s *Schedule) ExecSpeed(p platform.ProcID, at float64) (speed, until float64) {
	speed, until = 1, math.Inf(1)
	for _, e := range s.events {
		if e.Kind == LinkSlowdown || e.Proc != p {
			continue
		}
		speed, until = fold(e, at, speed, until)
	}
	return speed, until
}

// LinkSpeed returns the relative bandwidth of the link between from and to
// at time at, and the time until which it holds. Link events are symmetric:
// an event on (a, b) degrades both directions. Implements sim.Degradation.
func (s *Schedule) LinkSpeed(from, to platform.ProcID, at float64) (speed, until float64) {
	speed, until = 1, math.Inf(1)
	for _, e := range s.events {
		if e.Kind != LinkSlowdown {
			continue
		}
		if (e.From != from || e.To != to) && (e.From != to || e.To != from) {
			continue
		}
		speed, until = fold(e, at, speed, until)
	}
	return speed, until
}

// ParseEvents parses a comma-separated degradation spec, one event per
// item:
//
//	slow:P:F:START:END   processor P runs F× slower during [START, END) ms
//	off:P:START:END      processor P is offline during [START, END) ms
//	link:A:B:F:START:END link A<->B has F× less bandwidth during [START, END)
//
// Example: "slow:1:2:1000:5000,off:2:8000:9000". Processors are decimal
// integers; factors and times are floats. The result is validated; an
// empty spec yields no events.
func ParseEvents(spec string) ([]Event, error) {
	var events []Event
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.Split(item, ":")
		bad := func() ([]Event, error) {
			return nil, fmt.Errorf("perturb: malformed degradation event %q (want slow:P:F:START:END, off:P:START:END or link:A:B:F:START:END)", item)
		}
		// Each kind's leading fields name processors; the rest are its
		// factor and window.
		var e Event
		var procs []*platform.ProcID
		var nums []*float64
		switch parts[0] {
		case "slow":
			e.Kind = ProcSlowdown
			procs, nums = []*platform.ProcID{&e.Proc}, []*float64{&e.Factor, &e.StartMs, &e.EndMs}
		case "off":
			e.Kind = ProcOffline
			procs, nums = []*platform.ProcID{&e.Proc}, []*float64{&e.StartMs, &e.EndMs}
		case "link":
			e.Kind = LinkSlowdown
			procs, nums = []*platform.ProcID{&e.From, &e.To}, []*float64{&e.Factor, &e.StartMs, &e.EndMs}
		default:
			return bad()
		}
		if len(parts) != 1+len(procs)+len(nums) {
			return bad()
		}
		for i, dst := range procs {
			v, err := strconv.ParseInt(parts[1+i], 10, 32)
			if err != nil {
				return bad()
			}
			*dst = platform.ProcID(v)
		}
		for i, dst := range nums {
			v, err := strconv.ParseFloat(parts[1+len(procs)+i], 64)
			if err != nil {
				return bad()
			}
			*dst = v
		}
		events = append(events, e)
	}
	if _, err := NewSchedule(events); err != nil {
		return nil, err
	}
	return events, nil
}
