// Package promtext writes the Prometheus text exposition format
// (version 0.0.4) with no external dependencies: just enough for
// psdserve, psdproxy and psdingest to expose their existing counters as
// scrapeable GET /metrics endpoints. Only the subset the daemons need is
// implemented — counter and gauge families with optional labels.
package promtext

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ContentType is the Content-Type of a text exposition response.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one name="value" pair on a sample.
type Label struct {
	Name, Value string
}

// Writer accumulates one exposition. Errors are sticky: the first write
// failure is remembered and later calls no-op, so callers check Err once
// at the end.
type Writer struct {
	w   io.Writer
	err error
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error, if any.
func (p *Writer) Err() error { return p.err }

func (p *Writer) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Family starts a metric family: one # HELP and one # TYPE line. typ is
// "counter" or "gauge".
func (p *Writer) Family(name, typ, help string) {
	p.printf("# HELP %s %s\n", name, escapeHelp(help))
	p.printf("# TYPE %s %s\n", name, typ)
}

// Sample emits one sample line of the current family. labels may be nil.
func (p *Writer) Sample(name string, labels []Label, v float64) {
	if len(labels) == 0 {
		p.printf("%s %s\n", name, formatValue(v))
		return
	}
	var sb strings.Builder
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	p.printf("%s{%s} %s\n", name, sb.String(), formatValue(v))
}

// Bool is the gauge value of a flag: 1 for true, 0 for false.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// formatValue renders v the way Prometheus parsers expect: shortest
// round-trippable decimal.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a HELP text: backslash and newline.
func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
