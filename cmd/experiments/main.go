// Command experiments regenerates the thesis's evaluation: every table and
// figure of Chapter 4 and the appendices, plus the repository's extension
// artifacts. Every simulation runs through the public library's
// apt.RunBatch, the pipeline the paper-sweep benchmark measures. The whole
// run takes a fraction of a second, and its output is byte-identical
// across reruns and GOMAXPROCS values (CI cmp's it).
//
// Usage:
//
//	experiments                  # everything, as text, to stdout
//	experiments -ext             # also the ext-* artifacts
//	experiments -only table8     # a single artifact
//	experiments -list            # artifact catalogue
//	experiments -dir results/    # also write per-artifact .txt and .csv
//	experiments -seed 99         # different random workload suite
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	var (
		only = flag.String("only", "", "regenerate a single artifact (e.g. table8, figure11, ext-stream)")
		list = flag.Bool("list", false, "list artifact IDs and exit")
		dir  = flag.String("dir", "", "also write each artifact as .txt (and .csv where applicable) into this directory")
		seed = flag.Int64("seed", 0, "workload suite seed (0 = the default paper-facing seed)")
		ext  = flag.Bool("ext", false, "also regenerate the repository's extension artifacts (ext-*)")
		htm  = flag.String("html", "", "additionally write a single self-contained HTML report to this file")
	)
	flag.Parse()
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		for _, id := range experiments.ExtIDs() {
			fmt.Println(id)
		}
		return
	}
	if err := run(*only, *dir, *seed, *ext, *htm); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(only, dir string, seed int64, ext bool, htmlPath string) error {
	r := experiments.NewRunner(experiments.Config{Seed: seed})
	ids := experiments.IDs()
	if ext {
		ids = append(ids, experiments.ExtIDs()...)
	}
	if only != "" {
		ids = []string{only}
	}
	var page *report.HTMLReport
	if htmlPath != "" {
		page = report.NewHTMLReport("APT reproduction — paper tables and figures")
	}
	for _, id := range ids {
		a, err := r.Artifact(id)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "== %s — %s ==\n", strings.ToUpper(a.ID[:1])+a.ID[1:], a.Caption)
		if err := a.Render(&buf); err != nil {
			return err
		}
		buf.WriteString("\n")
		os.Stdout.Write(buf.Bytes())
		if dir != "" {
			if err := writeFiles(dir, a, buf.Bytes()); err != nil {
				return err
			}
		}
		if page != nil {
			switch {
			case a.Table != nil:
				page.AddTable(a.Table)
			case a.Figure != nil:
				page.AddFigure(a.Figure)
			default:
				page.AddText(a.Caption, a.Text)
			}
		}
	}
	if page != nil {
		f, err := os.Create(htmlPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := page.Render(f); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", htmlPath)
	}
	return nil
}

func writeFiles(dir string, a *experiments.Artifact, text []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, a.ID+".txt"), text, 0o644); err != nil {
		return err
	}
	var csv bytes.Buffer
	switch {
	case a.Table != nil:
		if err := a.Table.WriteCSV(&csv); err != nil {
			return err
		}
	case a.Figure != nil:
		if err := a.Figure.WriteCSV(&csv); err != nil {
			return err
		}
	default:
		return nil // text artifacts have no CSV form
	}
	return os.WriteFile(filepath.Join(dir, a.ID+".csv"), csv.Bytes(), 0o644)
}
