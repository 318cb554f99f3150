package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (version 0.0.4): # HELP and # TYPE lines per
// family, one sample line per series, histograms expanded into
// cumulative le-labeled buckets plus _sum and _count. Families are
// sorted by name and series by label values, so the output is
// deterministic for a fixed set of values — the property the golden
// test pins.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshot() {
		if f.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(f.help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind)
		bw.WriteByte('\n')
		for _, s := range f.sortedSeries() {
			switch f.kind {
			case kindCounter:
				writeSample(bw, f.name, "", f.keys, s.values, "", "", formatUint(s.c.Value()))
			case kindGauge:
				writeSample(bw, f.name, "", f.keys, s.values, "", "", strconv.FormatInt(s.g.Value(), 10))
			case kindHistogram:
				counts := s.h.BucketCounts()
				var cum uint64
				for i, bound := range s.h.Bounds() {
					cum += counts[i]
					writeSample(bw, f.name, "_bucket", f.keys, s.values, "le", formatFloat(bound), formatUint(cum))
				}
				cum += counts[len(counts)-1]
				writeSample(bw, f.name, "_bucket", f.keys, s.values, "le", "+Inf", formatUint(cum))
				writeSample(bw, f.name, "_sum", f.keys, s.values, "", "", formatFloat(s.h.Sum()))
				writeSample(bw, f.name, "_count", f.keys, s.values, "", "", formatUint(s.h.Count()))
			}
		}
	}
	return bw.Flush()
}

// writeSample emits one sample line: name+suffix, the series labels (in
// key order) plus an optional extra label (le for buckets), and the
// value.
func writeSample(bw *bufio.Writer, name, suffix string, keys, values []string, extraKey, extraVal, sample string) {
	bw.WriteString(name)
	bw.WriteString(suffix)
	if len(keys) > 0 || extraKey != "" {
		bw.WriteByte('{')
		first := true
		for i, k := range keys {
			if !first {
				bw.WriteByte(',')
			}
			first = false
			bw.WriteString(k)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(values[i]))
			bw.WriteByte('"')
		}
		if extraKey != "" {
			if !first {
				bw.WriteByte(',')
			}
			bw.WriteString(extraKey)
			bw.WriteString(`="`)
			bw.WriteString(extraVal)
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(sample)
	bw.WriteByte('\n')
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
