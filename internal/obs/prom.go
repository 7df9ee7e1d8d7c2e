// Prometheus text-format exposition (version 0.0.4) for the registry,
// plus the minimal parser naspipe-client top uses to read it back.
//
// The output is deterministic: families sort by name, series by label
// values, and floats format with strconv's shortest round-trip form —
// so a golden test can pin the exact bytes and a diff of two scrapes is
// a diff of the system, not of map iteration order.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the HTTP Content-Type of the exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// escapeHelp escapes a HELP line per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatFloat renders a sample value: shortest round-trip decimal,
// with the exposition spelling of infinities.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelPairs renders {k="v",...} for the given names/values; extra
// appends one more pair (the histogram "le"). Empty when there are no
// pairs at all.
func labelPairs(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraK, escapeLabel(extraV))
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus writes every family in exposition format. Func
// metrics are evaluated here, with no registry locks held. Nil-safe
// (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Snapshot the family list under the registry lock, then render with
	// it released: fn callbacks and series locks must not nest under it.
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(a, b int) bool { return fams[a].name < fams[b].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		if f.fn != nil {
			fmt.Fprintf(bw, "%s %s\n", f.name, formatFloat(f.fn()))
			continue
		}
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sers := make([]*series, 0, len(keys))
		sort.Strings(keys)
		for _, k := range keys {
			sers = append(sers, f.series[k])
		}
		f.mu.Unlock()
		for _, s := range sers {
			switch f.kind {
			case KindCounter:
				fmt.Fprintf(bw, "%s%s %s\n", f.name,
					labelPairs(f.labels, s.labelVals, "", ""), formatFloat(s.counter.Value()))
			case KindGauge:
				fmt.Fprintf(bw, "%s%s %s\n", f.name,
					labelPairs(f.labels, s.labelVals, "", ""), formatFloat(s.gauge.Value()))
			case KindHistogram:
				// One pass over the atomic bucket counters; cumulative sums
				// derive from that single read, so buckets are monotone even
				// while writers race the scrape.
				h := s.hist
				var cum uint64
				for i := range h.counts {
					cum += h.counts[i].Load()
					le := "+Inf"
					if i < len(h.bounds) {
						le = formatFloat(h.bounds[i])
					}
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name,
						labelPairs(f.labels, s.labelVals, "le", le), cum)
				}
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name,
					labelPairs(f.labels, s.labelVals, "", ""), formatFloat(h.Sum()))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name,
					labelPairs(f.labels, s.labelVals, "", ""), cum)
			}
		}
	}
	return bw.Flush()
}

// Handler returns the /metrics HTTP handler. Nil-safe: the disabled
// registry serves an empty (valid) exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = r.WritePrometheus(w)
	})
}

// Sample is one parsed exposition line: a metric name (histogram
// serieses appear under their _bucket/_sum/_count names), its label
// set, and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseText parses exposition text back into samples — the minimal
// consumer naspipe-client top and the format tests need. Comment and
// blank lines are skipped; a malformed sample line is an error naming
// the line number.
func ParseText(rd io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value on sample line %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.LastIndex(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	v, err := parseValue(strings.TrimSpace(rest))
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels parses `k="v",k2="v2"` with exposition escapes.
func parseLabels(s string, into map[string]string) error {
	for s != "" {
		eq := strings.Index(s, `="`)
		if eq < 0 {
			return fmt.Errorf("malformed label pair at %q", s)
		}
		key := s[:eq]
		s = s[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(s); i++ {
			if s[i] == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i+1])
				}
				i++
				continue
			}
			if s[i] == '"' {
				break
			}
			val.WriteByte(s[i])
		}
		if i >= len(s) {
			return fmt.Errorf("unterminated label value for %q", key)
		}
		into[key] = val.String()
		s = s[i+1:]
		s = strings.TrimPrefix(s, ",")
	}
	return nil
}
