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
//   - SwapAgents installs new parameters into every live session between
//     decisions: each session's lock is taken (an in-flight decision
//     finishes first), the agent SyncFroms the staged source, and the
//     session keeps serving. Sessions share no parameters, so a swap that
//     is halfway through the table affects nobody's arithmetic.

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

// all snapshots the live sessions (for the hot-swap sweep).
func (t *sessionTable) all() []*session {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*session, 0, len(t.m))
	for _, s := range t.m {
		out = append(out, s)
	}
	return out
}

// SwapAgents hot-swaps serving parameters: every live session whose
// scheduler is a Decima agent adopts src's parameter values, between
// decisions and without dropping the session. src is typically a staging
// agent that just loaded a registry checkpoint. Returns the number of
// sessions swapped; name and version update the served-model identity
// reported by Stats and /metrics.
//
// The caller must guarantee src's parameters are not mutated during the
// sweep (publish-then-reload from the registry guarantees it: the trainer
// keeps mutating its own agent, never the staged checkpoint).
func (d *Decima) SwapAgents(src *core.Agent, name string, version int) int {
	n := 0
	for _, s := range d.tbl.all() {
		s.mu.Lock()
		if !s.closed {
			if ag, ok := s.sched.(*core.Agent); ok {
				ag.SyncFrom(src)
				n++
			}
		}
		s.mu.Unlock()
	}
	d.SetModel(name, version)
	d.stats.Swaps.Add(1)
	return n
}

// SetModel records the served model identity (shown in Stats, /healthz and
// /metrics). The empty name means "unversioned" (a plain -model file or
// fresh initialisation).
func (d *Decima) SetModel(name string, version int) {
	d.modelMu.Lock()
	d.modelName, d.modelVersion = name, version
	d.modelMu.Unlock()
}

// Model returns the served model identity set by SetModel/SwapAgents.
func (d *Decima) Model() (string, int) {
	d.modelMu.Lock()
	defer d.modelMu.Unlock()
	return d.modelName, d.modelVersion
}
