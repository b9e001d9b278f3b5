// Package fleet shards Decima scheduling sessions across a set of
// decima-server replicas and keeps serving through replica churn.
//
// The router is a proxy speaking the exact rpcsvc "Decima" RPC surface,
// served through the same rpcsvc.Listener a replica uses, so every existing
// client — including the self-healing SessionScheduler — points at the
// router instead of a single server and works unchanged. A
// session's routing key is consistent-hashed onto the replica ring (Ring);
// the router rewrites session ids between its own fleet-wide id space and
// each replica's local one and forwards requests verbatim otherwise.
//
// Replica lifecycle is: register (AddReplica dials the replica), serve,
// then either drain (DrainReplica — new sessions avoid it, live sessions
// are closed on the replica and their next event answers ErrWrongShard,
// pushing the client through its snapshot reopen onto the new owner) or
// fail (a transport error or DownAfter failed health probes marks the
// replica down; its sessions answer ErrSessionEvicted and fail over the
// same way). Because every replica mints bit-identical deterministic
// agents, a migrated session's decisions are bitwise identical to an
// uninterrupted run — the equivalence bar the tests pin.
//
// The observability plane is the router's admin HTTP endpoint
// (NewAdminHandler): /metrics renders Prometheus text (per-replica session
// gauges, event counters and rates, forward-latency histograms, migration
// counters), /fleet reports the replica topology as JSON, /healthz reports
// router liveness and /drain triggers a drain. Per-replica process truth
// (decide latency, evictions, occupancy) lives on each replica's own ops
// endpoint (rpcsvc.NewOpsHandler, decima-server -http).
//
// cmd/decima-fleet wires this into a process: it spawns or attaches
// replicas, serves the router, and propagates SIGTERM as a fleet-wide
// drain. See docs/FLEET.md for the full design.
package fleet
