// Package obs writes the Prometheus text exposition format (0.0.4) for the
// replica's, the online trainer's and the fleet router's /metrics pages,
// and holds the latency histogram they export. A page is one Write per
// metric family, so a family fed by many sources (a histogram per replica)
// is collected first and gets its single # TYPE line.
package obs

import (
	"io"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Sample is one sample line of a metric family.
type Sample struct {
	// Suffix follows the family name: "_bucket", "_sum" or "_count" for a
	// histogram's samples, empty otherwise.
	Suffix string
	// Labels is the rendered label set (see L and Join); empty for none.
	Labels string
	Value  float64
}

// Write writes one metric family of type typ ("counter", "gauge" or
// "histogram"): its # TYPE line, then every sample. A family with no
// samples writes nothing.
func Write(w io.Writer, name, typ string, samples ...Sample) {
	if len(samples) == 0 {
		return
	}
	var b strings.Builder
	b.WriteString("# TYPE " + name + " " + typ + "\n")
	for _, s := range samples {
		b.WriteString(name + s.Suffix)
		if s.Labels != "" {
			b.WriteString("{" + s.Labels + "}")
		}
		// Integral values print as integers, as counters read; the rest in
		// %g's shortest form.
		format := byte('g')
		if s.Value == math.Trunc(s.Value) {
			format = 'f'
		}
		b.WriteString(" " + strconv.FormatFloat(s.Value, format, -1, 64) + "\n")
	}
	// A failed write only truncates the page its reader receives.
	_, _ = io.WriteString(w, b.String())
}

// escaper applies the format's three label-value escapes.
var escaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// L renders one label, name="value", escaping the value. An empty value
// renders as no label at all, which is what the format takes it to mean.
func L(name, value string) string {
	if value == "" {
		return ""
	}
	return name + `="` + escaper.Replace(value) + `"`
}

// Join joins rendered label sets, skipping empty ones.
func Join(sets ...string) string {
	var out []string
	for _, s := range sets {
		if s != "" {
			out = append(out, s)
		}
	}
	return strings.Join(out, ",")
}

// Bool is a gauge's value for a flag: 1 when set.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// bounds are the upper bounds, in seconds, of the latency histogram's
// buckets (an implicit +Inf bucket follows the last). They span sub-30µs
// cache-warm decisions to multi-second stalls.
var bounds = [...]float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3,
	50e-3, 100e-3, 250e-3, 1,
}

// LatencyHist is a fixed-bucket latency histogram safe for concurrent
// Observe calls. The zero value is ready to use.
type LatencyHist struct {
	// buckets[i] counts observations ≤ bounds[i]; the final slot is the
	// +Inf overflow bucket. Counts are per-bucket, not cumulative —
	// Samples accumulates.
	buckets [len(bounds) + 1]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Uint64
}

// Observe records one latency sample.
func (h *LatencyHist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := d.Seconds()
	i := 0
	for i < len(bounds) && s > bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(uint64(d.Nanoseconds()))
}

// HistSnapshot is a point-in-time copy of a LatencyHist.
type HistSnapshot struct {
	// Counts are per-bucket, the +Inf bucket last.
	Counts []uint64
	// Count and Sum (seconds) summarise all observations.
	Count uint64
	Sum   float64
}

// Snapshot copies the histogram's current state.
func (h *LatencyHist) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Counts: make([]uint64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    float64(h.sumNs.Load()) / 1e9,
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// Samples returns the snapshot's samples as a cumulative histogram: one
// _bucket per bound and +Inf, then _sum and _count, every one carrying
// labels.
func (s HistSnapshot) Samples(labels string) []Sample {
	out := make([]Sample, 0, len(s.Counts)+2)
	cum := uint64(0)
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(bounds) {
			le = strconv.FormatFloat(bounds[i], 'g', -1, 64)
		}
		out = append(out, Sample{Suffix: "_bucket", Labels: Join(labels, L("le", le)), Value: float64(cum)})
	}
	return append(out,
		Sample{Suffix: "_sum", Labels: labels, Value: s.Sum},
		Sample{Suffix: "_count", Labels: labels, Value: float64(s.Count)})
}
