package perturb

import (
	"math"
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
