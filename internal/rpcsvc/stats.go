package rpcsvc

import (
	"io"
	"sync/atomic"

	"repro/internal/obs"
)

// Serving statistics. Before the fleet work the session table's occupancy,
// evictions and the clients' recovery activity were invisible at runtime —
// observable only by instrumenting tests. Every counter here is an atomic
// bumped on the hot path (no locks, no allocation); snapshots are plain
// structs safe to compare in tests and to render as Prometheus text
// (ops.go, through internal/obs).

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
	Decide obs.LatencyHist
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
	Decide       obs.HistSnapshot
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

// WriteProm renders the snapshot in Prometheus text format, every series
// labelled with the replica identity (none when it is empty).
func (s StatsSnapshot) WriteProm(w io.Writer) {
	l := obs.L("replica", s.Replica)
	one := func(name, typ string, v float64) { obs.Write(w, name, typ, obs.Sample{Labels: l, Value: v}) }
	one("decima_sessions", "gauge", float64(s.Sessions))
	one("decima_draining", "gauge", obs.Bool(s.Draining))
	one("decima_opens_total", "counter", float64(s.Opens))
	one("decima_opens_rejected_total", "counter", float64(s.OpensRejected))
	one("decima_closes_total", "counter", float64(s.Closes))
	one("decima_events_total", "counter", float64(s.Events))
	one("decima_seq_gaps_total", "counter", float64(s.SeqGaps))
	one("decima_panics_total", "counter", float64(s.Panics))
	one("decima_shed_total", "counter", float64(s.Shed))
	one("decima_deadline_miss_total", "counter", float64(s.DeadlineMiss))
	one("decima_inflight", "gauge", float64(s.Inflight))
	obs.Write(w, "decima_sessions_evicted_total", "counter",
		obs.Sample{Labels: obs.Join(l, obs.L("reason", "lru")), Value: float64(s.EvictedLRU)},
		obs.Sample{Labels: obs.Join(l, obs.L("reason", "idle")), Value: float64(s.EvictedIdle)})
	// Online-loop serving metrics: the served model version (0 until a
	// registry checkpoint is installed) and the hot-swap count. The model
	// name rides as a label so a version rollback is visible as a change in
	// the labelled series, not an ambiguous gauge step.
	obs.Write(w, "decima_model_version", "gauge",
		obs.Sample{Labels: obs.Join(l, obs.L("model", s.ModelName)), Value: float64(s.ModelVersion)})
	one("online_swaps_total", "counter", float64(s.Swaps))
	one("decima_recording_opens_total", "counter", float64(s.RecordingOpens))
	obs.Write(w, "decima_decide_latency_seconds", "histogram", s.Decide.Samples(l)...)
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
