package perturb

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/platform"
)

func TestScheduleExecSpeedWindows(t *testing.T) {
	s, err := NewSchedule([]Event{
		{Kind: ProcSlowdown, Proc: 1, Factor: 2, StartMs: 100, EndMs: 200},
		{Kind: ProcOffline, Proc: 2, StartMs: 50, EndMs: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		proc         platform.ProcID
		at           float64
		speed, until float64
	}{
		{0, 0, 1, math.Inf(1)},   // unaffected processor
		{1, 0, 1, 100},           // before the window: nominal until it opens
		{1, 100, 0.5, 200},       // inside: half speed until it closes
		{1, 150, 0.5, 200},       //
		{1, 200, 1, math.Inf(1)}, // window end is exclusive
		{2, 55, 0, 60},           // offline
		{2, 60, 1, math.Inf(1)},  //
	}
	for _, c := range cases {
		speed, until := s.ExecSpeed(c.proc, c.at)
		if speed != c.speed || until != c.until {
			t.Errorf("ExecSpeed(%d, %v) = (%v, %v), want (%v, %v)", c.proc, c.at, speed, until, c.speed, c.until)
		}
	}
}

func TestScheduleOverlappingEventsCompose(t *testing.T) {
	s, err := NewSchedule([]Event{
		{Kind: ProcSlowdown, Proc: 0, Factor: 2, StartMs: 0, EndMs: 100},
		{Kind: ProcSlowdown, Proc: 0, Factor: 3, StartMs: 50, EndMs: 150},
	})
	if err != nil {
		t.Fatal(err)
	}
	speed, until := s.ExecSpeed(0, 60)
	if math.Abs(speed-1.0/6) > 1e-12 || until != 100 {
		t.Errorf("overlap: speed %v until %v, want 1/6 until 100", speed, until)
	}
	// Offline dominates any slowdown.
	s2, err := NewSchedule([]Event{
		{Kind: ProcSlowdown, Proc: 0, Factor: 2, StartMs: 0, EndMs: 100},
		{Kind: ProcOffline, Proc: 0, StartMs: 20, EndMs: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if speed, _ := s2.ExecSpeed(0, 25); speed != 0 {
		t.Errorf("offline within slowdown: speed %v, want 0", speed)
	}
}

func TestScheduleLinkSpeedSymmetric(t *testing.T) {
	s, err := NewSchedule([]Event{
		{Kind: LinkSlowdown, From: 0, To: 1, Factor: 4, StartMs: 10, EndMs: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range [][2]platform.ProcID{{0, 1}, {1, 0}} {
		speed, until := s.LinkSpeed(dir[0], dir[1], 15)
		if speed != 0.25 || until != 20 {
			t.Errorf("LinkSpeed(%d,%d,15) = (%v,%v), want (0.25, 20)", dir[0], dir[1], speed, until)
		}
	}
	if speed, until := s.LinkSpeed(0, 2, 15); speed != 1 || !math.IsInf(until, 1) {
		t.Errorf("unrelated link degraded: (%v, %v)", speed, until)
	}
	// Proc events never affect links and vice versa.
	if speed, _ := s.ExecSpeed(0, 15); speed != 1 {
		t.Errorf("link event leaked into ExecSpeed: %v", speed)
	}
}

func TestScheduleValidation(t *testing.T) {
	bad := [][]Event{
		{{Kind: ProcSlowdown, Proc: 0, Factor: 0.5, StartMs: 0, EndMs: 1}},         // factor < 1
		{{Kind: ProcSlowdown, Proc: 0, Factor: 2, StartMs: 5, EndMs: 5}},           // empty window
		{{Kind: ProcSlowdown, Proc: 0, Factor: 2, StartMs: -1, EndMs: 5}},          // negative start
		{{Kind: ProcOffline, Proc: 0, StartMs: 0, EndMs: math.Inf(1)}},             // everlasting offline
		{{Kind: LinkSlowdown, From: 1, To: 1, Factor: 2, StartMs: 0, EndMs: 1}},    // self link
		{{Kind: ProcSlowdown, Proc: -1, Factor: 2, StartMs: 0, EndMs: 1}},          // negative proc
		{{Kind: EventKind(42), Proc: 0, Factor: 2, StartMs: 0, EndMs: 1}},          // unknown kind
		{{Kind: ProcSlowdown, Proc: 0, Factor: math.Inf(1), StartMs: 0, EndMs: 1}}, // infinite factor
	}
	for i, evs := range bad {
		if _, err := NewSchedule(evs); err == nil {
			t.Errorf("case %d: NewSchedule accepted invalid events %+v", i, evs)
		}
	}
	s, err := NewSchedule(nil)
	if err != nil || len(s.events) != 0 {
		t.Errorf("empty schedule: %v, %d events", err, len(s.events))
	}
}

func TestParseEvents(t *testing.T) {
	evs, err := ParseEvents("slow:1:2:1000:5000, off:2:8000:9000 ,link:0:1:4:0:2000")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: ProcSlowdown, Proc: 1, Factor: 2, StartMs: 1000, EndMs: 5000},
		{Kind: ProcOffline, Proc: 2, StartMs: 8000, EndMs: 9000},
		{Kind: LinkSlowdown, From: 0, To: 1, Factor: 4, StartMs: 0, EndMs: 2000},
	}
	if len(evs) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(evs), len(want))
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, evs[i], want[i])
		}
	}
	if evs, err := ParseEvents(""); err != nil || len(evs) != 0 {
		t.Errorf("empty spec: %v, %v", evs, err)
	}
	for _, spec := range []string{
		"slow:1:2:1000",     // missing field
		"off:2:8000:9000:1", // extra field
		"melt:1:2:0:1",      // unknown kind
		"slow:x:2:0:1",      // non-numeric
		"slow:1:0.5:0:1",    // invalid factor, caught by validation
	} {
		if _, err := ParseEvents(spec); err == nil {
			t.Errorf("ParseEvents(%q) accepted malformed spec", spec)
		}
	}
	if !strings.Contains(ProcSlowdown.String()+ProcOffline.String()+LinkSlowdown.String(), "slow") {
		t.Error("EventKind String broken")
	}
}

// TestParseEventsIntegerProcessors: processor fields are integers; a float
// such as "slow:1.9:…" would truncate to processor 1 and degrade it.
func TestParseEventsIntegerProcessors(t *testing.T) {
	for _, spec := range []string{
		"slow:1.9:2:0:100000",
		"off:1.5:0:10",
		"link:0:1.0:4:0:10",
		"link:0.5:1:4:0:10",
		"slow:1e0:2:0:10",
		"slow:4294967296:2:0:10", // past 32 bits
	} {
		if evs, err := ParseEvents(spec); err == nil {
			t.Errorf("ParseEvents(%q) accepted a non-integer processor: %+v", spec, evs)
		}
	}
}

// formatEvents renders events back into ParseEvents' spec syntax, floats
// in their shortest exact form.
func formatEvents(evs []Event) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	items := make([]string, len(evs))
	for i, e := range evs {
		switch e.Kind {
		case ProcSlowdown:
			items[i] = fmt.Sprintf("slow:%d:%s:%s:%s", e.Proc, g(e.Factor), g(e.StartMs), g(e.EndMs))
		case ProcOffline:
			items[i] = fmt.Sprintf("off:%d:%s:%s", e.Proc, g(e.StartMs), g(e.EndMs))
		case LinkSlowdown:
			items[i] = fmt.Sprintf("link:%d:%d:%s:%s:%s", e.From, e.To, g(e.Factor), g(e.StartMs), g(e.EndMs))
		}
	}
	return strings.Join(items, ",")
}

// FuzzParseEvents: a degradation spec comes from a command line, so
// arbitrary input must never panic ParseEvents; every accepted spec must
// give events NewSchedule accepts, and rendering them back to a spec must
// parse to the same events.
func FuzzParseEvents(f *testing.F) {
	for _, spec := range []string{
		"slow:1:2:1000:8000",                                   // CI's robust sweep
		"slow:1:2:5000:20000,off:2:30000:50000",                // README
		"slow:1:2:1000:5000,off:2:8000:9000,link:0:1:4:0:2000", // sweep -degrade help
		"slow:7:2:0:100000", "off:9:0:100000", "link:0:5:4:0:100000", "slow:1.9:2:0:100000",
		"slow:0:5e9:0:1", "off:5e9:0:1", "off:0:0:5e9",
		"slow:0:NaN:0:1", "off:0:NaN:1", "off:0:0:NaN", "link:0:1:2:0:Inf",
		"", ",", "slow:0:2:0:1,,off:1:0:1", " slow:0:2:0:1 , off:1:0:1 ", "slow: 0:2:0:1",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		evs, err := ParseEvents(spec)
		if err != nil {
			return
		}
		if _, err := NewSchedule(evs); err != nil {
			t.Fatalf("ParseEvents(%q) gave events NewSchedule refuses: %v", spec, err)
		}
		text := formatEvents(evs)
		back, err := ParseEvents(text)
		if err != nil {
			t.Fatalf("ParseEvents(%q), rendered from %q: %v", text, spec, err)
		}
		if !slices.Equal(back, evs) {
			t.Fatalf("%q parsed to %+v; rendered as %q it parses to %+v", spec, evs, text, back)
		}
	})
}
