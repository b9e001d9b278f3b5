package rpcsvc

import "repro/internal/core"

// Trajectory recording and live model hot-swap: the serving half of the
// online-learning loop (internal/online closes it).
//
//   - A session opened with OpenRequest.Record — on a server configured
//     with a RecordSink — captures one core.ReplayStep per decision into a
//     bounded ring. When the session ends (Close, eviction, restart sweep)
//     the recorded trajectory is handed to the sink as one completed
//     episode. Recording is opt-in per session and free when off: the
//     agent's Record hook stays nil, which is also what keeps the
//     recording-off serving path bit-identical to before.
//   - Install hot-swaps the served model with one atomic store. Sessions
//     minted by the "decima" factory are runners that share their base
//     agent's model by pointer; each adopts the new model at its next
//     decision and re-embeds from a cold cache. A shared model is never
//     written, so no session lock is taken and the swap costs the same
//     however many sessions are live.

// DefaultRecordMaxSteps bounds a session's trajectory ring when
// SessionConfig.RecordMaxSteps is zero.
const DefaultRecordMaxSteps = 4096

// RecordSink receives one completed episode: the recorded replay steps of
// a session that ended. The sink takes ownership of the slice. It is
// called under the ending session's lock and must not block (the online
// trainer's Submit enqueues and returns).
type RecordSink func(steps []core.ReplayStep)

// recorder is one session's bounded trajectory ring. All access happens
// under the session lock: decisions record while the event holds it, and
// reset flushes while holding it.
type recorder struct {
	max     int
	steps   []core.ReplayStep
	start   int // ring head once len(steps) == max
	dropped uint64
}

// record captures one decision. The step's slices alias agent-owned
// scratch that the next decision overwrites, so each step is copied into
// storage of its own (the ring frees steps one at a time); the *gnn.Graph
// values themselves are stable and shared. When the ring is full the oldest
// step is dropped — online learning prefers the freshest window of a very
// long session.
func (r *recorder) record(rs core.ReplayStep) {
	rs = new(core.StepArena).Retain(rs)
	if len(r.steps) < r.max {
		r.steps = append(r.steps, rs)
		return
	}
	r.steps[r.start] = rs
	r.start = (r.start + 1) % r.max
	r.dropped++
}

// take linearises the ring into decision order and resets the recorder,
// handing ownership of the returned slice to the caller.
func (r *recorder) take() []core.ReplayStep {
	if len(r.steps) == 0 {
		return nil
	}
	out := make([]core.ReplayStep, 0, len(r.steps))
	out = append(out, r.steps[r.start:]...)
	out = append(out, r.steps[:r.start]...)
	r.steps = nil
	r.start = 0
	return out
}

// Install hot-swaps the served model: m becomes base's model
// (core.Agent.Install), so every session whose scheduler is a runner of base
// adopts it at its next decision, and name and version become the served
// identity reported by Stats and /metrics. m is typically built from a
// registry checkpoint just reloaded, never the trainer's own model, which
// keeps changing.
func (d *Decima) Install(base *core.Agent, m *core.Model, name string, version int) {
	base.Install(m)
	d.SetModel(name, version)
	d.stats.Swaps.Add(1)
}

// SetModel records the served model identity (shown in Stats, /healthz and
// /metrics). The empty name means "unversioned" (a plain -model file or
// fresh initialisation).
func (d *Decima) SetModel(name string, version int) {
	d.modelMu.Lock()
	d.modelName, d.modelVersion = name, version
	d.modelMu.Unlock()
}

// Model returns the served model identity set by SetModel/Install.
func (d *Decima) Model() (string, int) {
	d.modelMu.Lock()
	defer d.modelMu.Unlock()
	return d.modelName, d.modelVersion
}
