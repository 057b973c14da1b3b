package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestErrorMessages pins what main prints on failure: run's error,
// verbatim, which starts with one "experiments: " whether the Runner or
// the file system failed.
func TestErrorMessages(t *testing.T) {
	tmp := t.TempDir()
	file := filepath.Join(tmp, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	unknown := fmt.Sprintf("experiments: unknown artifact %q (known: %v, extensions: %v)",
		"bogus", experiments.IDs(), experiments.ExtIDs())
	for _, tc := range []struct {
		name, only, dir, html string
		want                  string
		whole                 bool // want is the whole message, not its start
	}{
		{"unknown artifact", "bogus", "", "", unknown, true},
		{"-dir on a file", "table8", file, "", "experiments: mkdir " + file + ": ", false},
		{"-html in a missing directory", "table8", "", filepath.Join(tmp, "missing", "r.html"),
			"experiments: open " + filepath.Join(tmp, "missing", "r.html") + ": ", false},
	} {
		err := run(io.Discard, tc.only, tc.dir, 0, false, tc.html)
		if err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, tc.want) || tc.whole && msg != tc.want {
			t.Errorf("%s: message %q, want %q", tc.name, msg, tc.want)
		}
		if strings.Count(msg, "experiments: ") != 1 {
			t.Errorf("%s: message %q repeats the prefix", tc.name, msg)
		}
	}
}

// TestHTMLReport writes one artifact's HTML report and checks the file was
// closed whole.
func TestHTMLReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.html")
	if err := run(io.Discard, "table8", "", 0, false, path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(b)), "</html>") {
		t.Errorf("report does not end in </html>: %q", b[max(0, len(b)-80):])
	}
}
