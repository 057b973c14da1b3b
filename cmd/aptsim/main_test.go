package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/apt"
)

// runTrace runs a small APT simulation that writes its Chrome trace to
// path and returns what it printed and its error.
func runTrace(path string) (string, error) {
	var out bytes.Buffer
	err := run(&out, 2, 20, 3, "", "apt", 4, 1, 4, 0, false, false, path, false)
	return out.String(), err
}

// TestTraceErrors: a trace that cannot be written fails the run with one
// error, which main prints after a single "aptsim: ", and the run does not
// claim to have written it.
func TestTraceErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "t.json")
	paths := []string{missing}
	if _, err := os.Stat("/dev/full"); err == nil {
		paths = append(paths, "/dev/full")
	}
	for _, path := range paths {
		out, err := runTrace(path)
		if err == nil {
			t.Fatalf("trace to %s: no error", path)
		}
		if msg := "aptsim: " + err.Error(); strings.Count(msg, "aptsim:") != 1 || !strings.Contains(msg, path) {
			t.Errorf("trace to %s: main would print %q", path, msg)
		}
		if strings.Contains(out, "trace wrote") {
			t.Errorf("trace to %s: output claims the trace was written:\n%s", path, out)
		}
	}
}

// TestTraceWritten: a trace that was written is whole JSON and reported.
func TestTraceWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	out, err := runTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "trace     wrote "+path) {
		t.Errorf("output does not report the trace:\n%s", out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(b)), "]") {
		t.Errorf("trace does not end its event array: %q", b[max(0, len(b)-80):])
	}
}

// TestPolicyHelp: the -policy help names every policy apt.ParsePolicy
// accepts, and only those.
func TestPolicyHelp(t *testing.T) {
	help := policyUsage()
	_, list, ok := strings.Cut(help, ": ")
	if !ok {
		t.Fatalf("help %q has no policy list", help)
	}
	listed := strings.Split(list, ", ")
	if len(listed) != len(apt.PolicyNames()) {
		t.Errorf("help lists %d policies, want %d: %q", len(listed), len(apt.PolicyNames()), help)
	}
	for _, name := range apt.PolicyNames() {
		if !strings.Contains(", "+list+", ", ", "+name+", ") {
			t.Errorf("help %q does not name %s", help, name)
		}
	}
	for _, name := range listed {
		if _, err := apt.ParsePolicy(name, 4, 1); err != nil {
			t.Errorf("help names %q, which ParsePolicy refuses: %v", name, err)
		}
	}
}
