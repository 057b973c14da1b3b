// Package telemetry renders the scheduler's existing counters and
// histograms into standard observability formats: Prometheus text-format
// exposition (for /v1/metrics scrapes) and Chrome trace-event JSON (for
// chrome://tracing / Perfetto placement inspection).
//
// The package is read-only over snapshots the caller already holds
// (online.Stats, stats.Histogram copies, online.TraceEvent slices), so
// rendering never touches the scheduler's hot paths.
package telemetry

import (
	"bytes"
	"io"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Exposition accumulates Prometheus text-format families
// (https://prometheus.io/docs/instrumenting/exposition_formats/, version
// 0.0.4). Families render in the order they are added.
type Exposition struct {
	buf bytes.Buffer
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (e *Exposition) header(name, help, typ string) {
	e.buf.WriteString("# HELP ")
	e.buf.WriteString(name)
	e.buf.WriteByte(' ')
	e.buf.WriteString(helpEscaper.Replace(help))
	e.buf.WriteString("\n# TYPE ")
	e.buf.WriteString(name)
	e.buf.WriteByte(' ')
	e.buf.WriteString(typ)
	e.buf.WriteByte('\n')
}

func (e *Exposition) sample(name, labelKey, labelVal string, v float64) {
	e.buf.WriteString(name)
	if labelKey != "" {
		e.buf.WriteByte('{')
		e.buf.WriteString(labelKey)
		e.buf.WriteString(`="`)
		e.buf.WriteString(labelEscaper.Replace(labelVal))
		e.buf.WriteString(`"}`)
	}
	e.buf.WriteByte(' ')
	e.buf.WriteString(fmtFloat(v))
	e.buf.WriteByte('\n')
}

// Counter adds a single-sample counter family.
func (e *Exposition) Counter(name, help string, v float64) {
	e.header(name, help, "counter")
	e.sample(name, "", "", v)
}

// Gauge adds a single-sample gauge family.
func (e *Exposition) Gauge(name, help string, v float64) {
	e.header(name, help, "gauge")
	e.sample(name, "", "", v)
}

// CounterPer adds a counter family with one sample per element of vals,
// labelled label="0", label="1", ….
func (e *Exposition) CounterPer(name, help, label string, vals []float64) {
	e.header(name, help, "counter")
	for i, v := range vals {
		e.sample(name, label, strconv.Itoa(i), v)
	}
}

// GaugePer is CounterPer for gauges.
func (e *Exposition) GaugePer(name, help, label string, vals []float64) {
	e.header(name, help, "gauge")
	for i, v := range vals {
		e.sample(name, label, strconv.Itoa(i), v)
	}
}

// Histogram converts a log-bucketed stats.Histogram into a cumulative
// Prometheus histogram family: one <name>_bucket sample per non-empty
// cell (le = the cell's upper bound), the mandatory le="+Inf" bucket,
// and <name>_sum / <name>_count. Cells are already sorted ascending, so
// the cumulative series is monotone by construction. A nil histogram is
// skipped entirely.
func (e *Exposition) Histogram(name, help string, h *stats.Histogram) {
	if h == nil {
		return
	}
	e.header(name, help, "histogram")
	cum := 0
	for _, b := range h.Buckets() {
		cum += b.Count
		e.sample(name+"_bucket", "le", fmtFloat(b.Hi), float64(cum))
	}
	e.sample(name+"_bucket", "le", "+Inf", float64(h.Count()))
	e.sample(name+"_sum", "", "", h.Sum())
	e.sample(name+"_count", "", "", float64(h.Count()))
}

// WriteTo writes the accumulated exposition. It implements io.WriterTo.
func (e *Exposition) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(e.buf.Bytes())
	return int64(n), err
}
