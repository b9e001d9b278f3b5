package rpcsvc

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Serving statistics. Before the fleet work the session table's occupancy,
// evictions and the clients' recovery activity were invisible at runtime —
// observable only by instrumenting tests. Every counter here is an atomic
// bumped on the hot path (no locks, no allocation); snapshots are plain
// structs safe to compare in tests and to render as Prometheus text
// (ops.go, internal/fleet).

// DecideLatencyBounds are the upper bounds, in seconds, of the
// decide-latency histogram buckets (an implicit +Inf bucket follows the
// last bound). They span sub-30µs cache-warm decisions to multi-second
// stalls.
var DecideLatencyBounds = [...]float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3,
	50e-3, 100e-3, 250e-3, 1,
}

// LatencyHist is a fixed-bucket latency histogram safe for concurrent
// Observe calls. The zero value is ready to use.
type LatencyHist struct {
	// buckets[i] counts observations ≤ DecideLatencyBounds[i]; the final
	// slot is the +Inf overflow bucket. Counts are per-bucket, not
	// cumulative — Snapshot and the Prometheus writer accumulate.
	buckets [len(DecideLatencyBounds) + 1]atomic.Uint64
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
	for i < len(DecideLatencyBounds) && s > DecideLatencyBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(uint64(d.Nanoseconds()))
}

// HistSnapshot is a point-in-time copy of a LatencyHist.
type HistSnapshot struct {
	// Bounds are the bucket upper bounds in seconds; Counts has one extra
	// trailing element for the +Inf bucket. Counts are per-bucket.
	Bounds []float64
	Counts []uint64
	// Count and Sum (seconds) summarise all observations.
	Count uint64
	Sum   float64
}

// Snapshot copies the histogram's current state.
func (h *LatencyHist) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: DecideLatencyBounds[:],
		Counts: make([]uint64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    float64(h.sumNs.Load()) / 1e9,
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// WriteProm renders the snapshot in Prometheus text exposition format as a
// cumulative histogram named name. labels ('key="v",...', possibly empty)
// are merged into every series.
func (s HistSnapshot) WriteProm(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	cum := uint64(0)
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, b, cum)
	}
	cum += s.Counts[len(s.Bounds)]
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, s.Sum)
		fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, s.Sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, s.Count)
	}
}

// ServerStats is the serving-side counter set, owned by a Decima service
// object and bumped on every protocol operation.
type ServerStats struct {
	// Opens/Closes/Events count successful protocol operations.
	Opens, Closes, Events atomic.Uint64
	// OpensRejected counts Opens refused while draining.
	OpensRejected atomic.Uint64
	// SeqGaps counts events rejected for sequence-order violations.
	SeqGaps atomic.Uint64
	// Shed counts requests refused at the admission gate (in-flight events
	// past MaxInflight); DeadlineMiss counts requests shed because
	// their deadline budget was spent before the decision could start. Both
	// shed paths answer ErrOverloaded and never touch the session mirror, so
	// shed work is exactly retryable — Decide never observes it.
	Shed, DeadlineMiss atomic.Uint64
	// Inflight tracks events currently admitted (executing or waiting on a
	// session lock); the admission gate compares it against MaxInflight.
	Inflight atomic.Int64
	// EvictedLRU and EvictedIdle count session-table evictions by cause.
	EvictedLRU, EvictedIdle atomic.Uint64
	// RecordingOpens counts sessions opened with trajectory recording on;
	// Swaps counts live model hot-swaps (Install).
	RecordingOpens, Swaps atomic.Uint64
	// Panics counts events whose decision panicked; each evicted its
	// session and the server kept serving.
	Panics atomic.Uint64
	// Decide observes the latency of every scheduling decision.
	Decide LatencyHist
}

// StatsSnapshot is a point-in-time copy of a server's counters plus the
// live session-table occupancy.
type StatsSnapshot struct {
	Sessions                int
	Opens, Closes, Events   uint64
	OpensRejected           uint64
	SeqGaps                 uint64
	Shed, DeadlineMiss      uint64
	Inflight                int64
	EvictedLRU, EvictedIdle uint64
	RecordingOpens, Swaps   uint64
	Panics                  uint64
	Draining                bool
	Replica                 string
	// ModelName/ModelVersion identify the served model (registry identity;
	// empty name means unversioned parameters).
	ModelName    string
	ModelVersion int
	Decide       HistSnapshot
}

// snapshot copies the counters; the caller fills table occupancy and
// identity.
func (st *ServerStats) snapshot() StatsSnapshot {
	return StatsSnapshot{
		Opens:          st.Opens.Load(),
		Closes:         st.Closes.Load(),
		Events:         st.Events.Load(),
		OpensRejected:  st.OpensRejected.Load(),
		SeqGaps:        st.SeqGaps.Load(),
		Shed:           st.Shed.Load(),
		DeadlineMiss:   st.DeadlineMiss.Load(),
		Inflight:       st.Inflight.Load(),
		EvictedLRU:     st.EvictedLRU.Load(),
		EvictedIdle:    st.EvictedIdle.Load(),
		RecordingOpens: st.RecordingOpens.Load(),
		Swaps:          st.Swaps.Load(),
		Panics:         st.Panics.Load(),
		Decide:         st.Decide.Snapshot(),
	}
}

// WriteProm renders the snapshot in Prometheus text format. labels
// ('key="v",...', possibly empty) are merged into every series.
func (s StatsSnapshot) WriteProm(w io.Writer, labels string) {
	braced := "{" + labels + "}"
	if labels == "" {
		braced = ""
	}
	c := func(name string, v uint64) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s%s %d\n", name, name, braced, v)
	}
	fmt.Fprintf(w, "# TYPE decima_sessions gauge\ndecima_sessions%s %d\n", braced, s.Sessions)
	drain := 0
	if s.Draining {
		drain = 1
	}
	fmt.Fprintf(w, "# TYPE decima_draining gauge\ndecima_draining%s %d\n", braced, drain)
	c("decima_opens_total", s.Opens)
	c("decima_opens_rejected_total", s.OpensRejected)
	c("decima_closes_total", s.Closes)
	c("decima_events_total", s.Events)
	c("decima_seq_gaps_total", s.SeqGaps)
	c("decima_panics_total", s.Panics)
	c("decima_shed_total", s.Shed)
	c("decima_deadline_miss_total", s.DeadlineMiss)
	fmt.Fprintf(w, "# TYPE decima_inflight gauge\ndecima_inflight%s %d\n", braced, s.Inflight)
	evl := labels
	if evl != "" {
		evl += ","
	}
	fmt.Fprintf(w, "# TYPE decima_sessions_evicted_total counter\n")
	fmt.Fprintf(w, "decima_sessions_evicted_total{%sreason=\"lru\"} %d\n", evl, s.EvictedLRU)
	fmt.Fprintf(w, "decima_sessions_evicted_total{%sreason=\"idle\"} %d\n", evl, s.EvictedIdle)
	// Online-loop serving metrics: the served model version (0 until a
	// registry checkpoint is installed) and the hot-swap count. The model
	// name rides as a label so a version rollback is visible as a change in
	// the labelled series, not an ambiguous gauge step.
	ml := labels
	if s.ModelName != "" {
		if ml != "" {
			ml += ","
		}
		ml += `model="` + s.ModelName + `"`
	}
	mb := "{" + ml + "}"
	if ml == "" {
		mb = ""
	}
	fmt.Fprintf(w, "# TYPE decima_model_version gauge\ndecima_model_version%s %d\n", mb, s.ModelVersion)
	c("online_swaps_total", s.Swaps)
	c("decima_recording_opens_total", s.RecordingOpens)
	s.Decide.WriteProm(w, "decima_decide_latency_seconds", labels)
}

// ClientStats is the recovery-activity counter set of a SessionScheduler:
// how often the self-healing ladder actually ran. All fields are atomics so
// tests and monitors may read concurrently with a live run.
type ClientStats struct {
	// Events counts scheduling events answered (remotely or via fallback);
	// Attempts counts RPC attempts, so Attempts-Events is the retry volume.
	Events, Attempts atomic.Uint64
	// Reopens counts sessions re-established from the client snapshot.
	Reopens atomic.Uint64
	// Redials counts transport replacements.
	Redials atomic.Uint64
	// Evicted, WrongShard, Draining, Overloaded and Transient count failed
	// attempts by classified cause.
	Evicted, WrongShard, Draining, Overloaded, Transient atomic.Uint64
	// Exhausted counts scheduling events whose whole retry budget
	// (MaxRetries or MaxElapsed) ran out, tripping ErrRetriesExhausted.
	Exhausted atomic.Uint64
	// Fallbacks counts events decided by the local fallback policy.
	Fallbacks atomic.Uint64
}

// ClientStatsSnapshot is a point-in-time copy of a SessionScheduler's
// recovery counters.
type ClientStatsSnapshot struct {
	Events, Attempts                                     uint64
	Reopens, Redials                                     uint64
	Evicted, WrongShard, Draining, Overloaded, Transient uint64
	Exhausted                                            uint64
	Fallbacks                                            uint64
}

func (c *ClientStats) snapshot() ClientStatsSnapshot {
	return ClientStatsSnapshot{
		Events:     c.Events.Load(),
		Attempts:   c.Attempts.Load(),
		Reopens:    c.Reopens.Load(),
		Redials:    c.Redials.Load(),
		Evicted:    c.Evicted.Load(),
		WrongShard: c.WrongShard.Load(),
		Draining:   c.Draining.Load(),
		Overloaded: c.Overloaded.Load(),
		Transient:  c.Transient.Load(),
		Exhausted:  c.Exhausted.Load(),
		Fallbacks:  c.Fallbacks.Load(),
	}
}
