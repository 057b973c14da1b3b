package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// Every sweep mode is fully seeded, so rerunning the same configuration
// must print byte-identical output — the in-process counterpart of the CI
// determinism gate, which diffs the built binary's output the same way.
// The stream and robust modes also pin their output by hash, so a change
// that moves a printed number fails here, not only a change that makes
// reruns differ.

// outputHash is the FNV-64a hash of a sweep's output, in hex.
func outputHash(out string) string {
	h := fnv.New64a()
	h.Write([]byte(out))
	return fmt.Sprintf("%016x", h.Sum64())
}

func rerunIdentical(t *testing.T, name string, f func(w *bytes.Buffer) error) string {
	t.Helper()
	var a, b bytes.Buffer
	if err := f(&a); err != nil {
		t.Fatalf("%s first run: %v", name, err)
	}
	if err := f(&b); err != nil {
		t.Fatalf("%s second run: %v", name, err)
	}
	if a.Len() == 0 {
		t.Fatalf("%s produced no output", name)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("%s output differs across reruns of the same seed", name)
	}
	return a.String()
}

func TestBatchModeDeterministic(t *testing.T) {
	out := rerunIdentical(t, "batch", func(w *bytes.Buffer) error {
		return run(w, 1, "2,4", "4", "apt", 7, "20,30", "")
	})
	if !strings.Contains(out, "thresholdbrk") {
		t.Errorf("batch output missing thresholdbrk summary:\n%s", out)
	}
}

func TestStreamModeDeterministic(t *testing.T) {
	out := rerunIdentical(t, "stream", func(w *bytes.Buffer) error {
		return runStream(w, streamConfig{
			arrival: "bursty", kernels: 300, window: 100,
			gapCSV: "200,400", policyCSV: "apt,met", alpha: 4, rate: 4,
			seed: 7, burstLen: 1000, idleLen: 3000, hist: true,
		})
	})
	if !strings.Contains(out, "p99 sojourn vs arrival gap") {
		t.Errorf("stream output missing sweep figure:\n%s", out)
	}
	if got, want := outputHash(out), "c5acb005cc1f3a56"; got != want {
		t.Errorf("stream output hash %s, want %s:\n%s", got, want, out)
	}
}

func TestRobustModeDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  robustConfig
		want string
	}{
		{"uniform, gpu bias, slowdown", robustConfig{
			typ: 1, sizeCSV: "20,30", fracCSV: "0,0.3", policyCSV: "apt,met",
			noise: "uniform", biasCSV: "gpu:1.2", degradeCSV: "slow:1:2:100:4000",
			alpha: 4, rate: 4, seed: 7, gapMs: 50,
		}, "5fa1efd9fc4b9f6b"},
		{"lognormal, cpu bias, AG", robustConfig{
			typ: 2, sizeCSV: "46,58", fracCSV: "0,0.3", policyCSV: "apt,ag",
			noise: "lognormal", biasCSV: "cpu:0.8",
			alpha: 4, rate: 4, seed: 5, gapMs: 500,
		}, "9e36ca1f9b2a5a23"},
	} {
		out := rerunIdentical(t, tc.name, func(w *bytes.Buffer) error {
			return runRobust(w, tc.cfg)
		})
		for _, want := range []string{"Regret %", "regret vs estimate-error magnitude", "p99 sojourn vs estimate-error magnitude"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: robust output missing %q:\n%s", tc.name, want, out)
			}
		}
		// Each case has a cell where the policy decides alike on clean and
		// perturbed estimates; its zero regret must render as +0.00.
		if !strings.Contains(out, "+0.00") {
			t.Errorf("%s: robust output missing zero regret at frac 0:\n%s", tc.name, out)
		}
		if got := outputHash(out); got != tc.want {
			t.Errorf("%s: robust output hash %s, want %s:\n%s", tc.name, got, tc.want, out)
		}
	}
}

func TestRobustModeRejectsBadFlags(t *testing.T) {
	var w bytes.Buffer
	bad := []robustConfig{
		{typ: 1, sizeCSV: "20", fracCSV: "0", policyCSV: "apt", noise: "gaussian", rate: 4},
		{typ: 1, sizeCSV: "20", fracCSV: "0", policyCSV: "apt", noise: "uniform", biasCSV: "gpu", rate: 4},
		{typ: 1, sizeCSV: "20", fracCSV: "0", policyCSV: "apt", noise: "uniform", degradeCSV: "melt:1:2:3", rate: 4},
		{typ: 1, sizeCSV: "20", fracCSV: "", policyCSV: "apt", noise: "uniform", rate: 4},
		{typ: 1, sizeCSV: "20", fracCSV: "0", policyCSV: "nope", noise: "uniform", rate: 4},
	}
	for i, cfg := range bad {
		if err := runRobust(&w, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestScaleModeDeterministic(t *testing.T) {
	out := rerunIdentical(t, "scale", func(w *bytes.Buffer) error {
		return runScale(w, scaleConfig{
			shape: "layered", sizeCSV: "500,1000", policyCSV: "apt,heft",
			procs: 6, alpha: 4, rate: 4, seed: 7,
		})
	})
	if !strings.Contains(out, "scale sweep") || !strings.Contains(out, "HEFT") {
		t.Errorf("scale output missing table:\n%s", out)
	}
	outFJ := rerunIdentical(t, "scale-forkjoin", func(w *bytes.Buffer) error {
		return runScale(w, scaleConfig{
			shape: "forkjoin", sizeCSV: "500", policyCSV: "apt", procs: 6,
			alpha: 4, rate: 4, seed: 7, width: 32,
		})
	})
	if !strings.Contains(outFJ, "forkjoin") {
		t.Errorf("fork-join scale output missing header:\n%s", outFJ)
	}
}
