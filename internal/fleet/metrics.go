package fleet

import (
	"io"
	"sort"

	"repro/internal/obs"
)

// ReplicaInfo is one replica's row in the /fleet topology report.
type ReplicaInfo struct {
	ID       string `json:"id"`
	Addr     string `json:"addr"`
	OpsAddr  string `json:"ops_addr,omitempty"`
	PID      int    `json:"pid,omitempty"`
	Up       bool   `json:"up"`
	Draining bool   `json:"draining"`
	// Breaker is the replica's circuit-breaker state: "closed", "open" or
	// "half-open".
	Breaker string `json:"breaker,omitempty"`
	// Model is the served model identity last reported by the replica's
	// health probe ("name@version"; empty for unversioned parameters), so a
	// live hot-swap — and a mid-rollout fleet running mixed versions — is
	// visible straight from /fleet.
	Model    string `json:"model,omitempty"`
	Sessions int    `json:"sessions"`
	Events   uint64 `json:"events"`
}

// Info is the /fleet topology report.
type Info struct {
	Sessions int           `json:"sessions"`
	Replicas []ReplicaInfo `json:"replicas"`
}

// Info snapshots the fleet topology.
func (rt *Router) Info() Info {
	rt.mu.RLock()
	reps := make([]*replica, 0, len(rt.replicas))
	for _, rep := range rt.replicas {
		reps = append(reps, rep)
	}
	rt.mu.RUnlock()
	sort.Slice(reps, func(i, j int) bool { return reps[i].id < reps[j].id })
	info := Info{Sessions: rt.Sessions()}
	for _, rep := range reps {
		rep.mu.Lock()
		up, draining, model := rep.up, rep.draining, rep.model
		rep.mu.Unlock()
		info.Replicas = append(info.Replicas, ReplicaInfo{
			ID:       rep.id,
			Addr:     rep.addr,
			OpsAddr:  rep.opsAddr,
			PID:      rep.pid,
			Up:       up,
			Draining: draining,
			Breaker:  rep.brk.current().String(),
			Model:    model,
			Sessions: rt.sessionsOn(rep.id),
			Events:   rep.events.Load(),
		})
	}
	return info
}

// WriteProm renders the router's fleet-wide view in Prometheus text
// exposition format: per-replica placement and traffic (sessions, event
// counters, forward-latency histograms, up/draining gauges) plus the fleet
// totals and migration counters. A scrape only reads; per-replica event
// rates are rate(fleet_replica_events_total[...]) on the consumer's side.
func (rt *Router) WriteProm(w io.Writer) {
	info := rt.Info()
	obs.Write(w, "fleet_replicas", "gauge", obs.Sample{Value: float64(len(info.Replicas))})
	obs.Write(w, "fleet_sessions", "gauge", obs.Sample{Value: float64(info.Sessions)})

	var up, draining, sessions, model, breaker, events, latency []obs.Sample
	for _, ri := range info.Replicas {
		l := obs.L("replica", ri.ID)
		up = append(up, obs.Sample{Labels: l, Value: obs.Bool(ri.Up)})
		draining = append(draining, obs.Sample{Labels: l, Value: obs.Bool(ri.Draining)})
		sessions = append(sessions, obs.Sample{Labels: l, Value: float64(ri.Sessions)})
		// Served model as an info-style gauge (value constant 1, the
		// identity rides the label), for replicas that reported one.
		if ri.Model != "" {
			model = append(model, obs.Sample{Labels: obs.Join(l, obs.L("model", ri.Model)), Value: 1})
		}
		events = append(events, obs.Sample{Labels: l, Value: float64(ri.Events)})
		rep := rt.replica(ri.ID)
		if rep == nil {
			continue
		}
		// Breaker state: 0 closed, 1 open, 2 half-open.
		breaker = append(breaker, obs.Sample{Labels: l, Value: float64(rep.brk.current())})
		latency = append(latency, rep.forward.Snapshot().Samples(l)...)
	}
	obs.Write(w, "fleet_replica_up", "gauge", up...)
	obs.Write(w, "fleet_replica_draining", "gauge", draining...)
	obs.Write(w, "fleet_replica_sessions", "gauge", sessions...)
	obs.Write(w, "fleet_replica_model", "gauge", model...)
	obs.Write(w, "fleet_breaker_state", "gauge", breaker...)
	obs.Write(w, "fleet_replica_events_total", "counter", events...)
	obs.Write(w, "fleet_replica_decide_latency_seconds", "histogram", latency...)

	counter := func(name string, v uint64) { obs.Write(w, name, "counter", obs.Sample{Value: float64(v)}) }
	counter("fleet_opens_total", rt.stats.opens.Load())
	counter("fleet_events_total", rt.stats.events.Load())
	counter("fleet_closes_total", rt.stats.closes.Load())
	counter("fleet_unroutable_total", rt.stats.noReplica.Load())
	counter("fleet_shed_total", rt.stats.shed.Load())
	counter("fleet_wrong_shard_total", rt.stats.wrongShard.Load())
	counter("fleet_unknown_session_total", rt.stats.unknown.Load())
	obs.Write(w, "fleet_migrations_total", "counter",
		obs.Sample{Labels: obs.L("reason", "drain"), Value: float64(rt.stats.migrationsDrain.Load())},
		obs.Sample{Labels: obs.L("reason", "failover"), Value: float64(rt.stats.migrationsFailover.Load())})
}
