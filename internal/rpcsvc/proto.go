// Package rpcsvc exposes Decima as a pluggable scheduling service over TCP,
// mirroring the paper's Spark integration (§6.1): the cluster (here, a
// simulator or any driver playing the Spark master's role) contacts the
// service on every scheduling event — stage completions, executor
// exhaustion, job arrivals — and receives the next stage to work on, the
// job's parallelism limit, and (in the multi-resource setting) the executor
// class to use.
//
// The wire protocol is plain-data structs in net/rpc's gob framing (wire.go
// speaks it; stock net/rpc peers interoperate), and it is session-based:
// Open(scheduler, seed) → sid establishes a long-lived server-side mirror of
// the cluster with a scheduler instance of its own; each Event(sid, delta) sends only what
// changed since the previous event (O(delta), not O(cluster)) and returns
// the next action; Close(sid) releases the mirror. Because the server's
// sim.JobState mirrors persist across events — with Version bumped exactly
// on the jobs a delta touches — the agent's incremental per-job embedding
// cache is sound in serving, converting the offline inference fast path into
// serving throughput.
//
// Every event is validated, applied and decided on the goroutine serving the
// connection that delivered it, under its session's lock: sessions decide
// concurrently and independently, and a session's result never depends on
// what else the server is serving. One Listener serves both a replica
// (Server) and a fleet router; a Client runs each call in lockstep on the
// caller's goroutine over a connection of its own.
//
// The SessionScheduler client implements sim.Scheduler, so an entire
// simulation can be driven by a Decima agent living in another process. The
// wire protocol — schemas, seq ordering, eviction rules — is specified in
// docs/PROTOCOL.md at the repository root.
package rpcsvc

import (
	"fmt"
	"time"

	"repro/internal/dag"
	"repro/internal/sim"
)

// StageInfo is the wire form of one stage's static description and runtime
// counters.
type StageInfo struct {
	ID            int
	NumTasks      int
	TaskDuration  float64
	MemReq        float64
	CPUReq        float64
	Parents       []int
	Children      []int
	TasksLaunched int
	TasksDone     int
	ParentsDone   int
	Running       int
}

// JobInfo is the wire form of one job in the system.
type JobInfo struct {
	ID        int
	Arrival   float64
	Executors int
	Limit     int
	Stages    []StageInfo
}

// ExecutorInfo is the wire form of one free executor.
type ExecutorInfo struct {
	ID    int
	Class int
	Mem   float64
	// LocalJob is the job the executor is bound to, or -1.
	LocalJob int
}

// ScheduleResponse carries the scheduling decision of one event (embedded
// in EventResponse); HasAction false means "leave remaining executors idle".
type ScheduleResponse struct {
	HasAction bool
	JobID     int
	StageID   int
	Limit     int
	Class     int
}

// OpenRequest establishes a scheduling session: a long-lived server-side
// mirror of one cluster, with one scheduler instance deciding for it.
type OpenRequest struct {
	// Scheduler names a policy from the internal/scheduler registry; empty
	// selects the server's default.
	Scheduler string
	// Seed seeds the session's scheduler (Decima action sampling).
	Seed int64
	// TotalExecutors and MoveDelay are the cluster constants of the run.
	TotalExecutors int
	MoveDelay      float64
	// Key is the session's routing key. A fleet router consistent-hashes it
	// onto a replica, so a session that reopens under the same key lands on
	// the same replica while the replica set is unchanged. Empty is valid
	// (the router mints an ephemeral key); single servers ignore it.
	Key string
	// Deadline is the caller's time budget for this open (a relative
	// duration — wall-clock instants would need synchronised clocks). A
	// saturated or slow server sheds the open with ErrOverloaded once the
	// budget is spent instead of binding a session the client has stopped
	// waiting for. Zero (the pre-overload wire form) means no budget.
	Deadline time.Duration
	// Record opts the session into trajectory recording for the online
	// learning loop: the server captures one replay step per decision and
	// hands the completed episode to its trainer when the session ends.
	// Ignored (silently) on servers without a RecordSink; false — the
	// pre-online wire form old clients send — costs nothing and serves
	// bit-identically to before.
	Record bool
}

// OpenResponse returns the session id for subsequent Event/Close calls.
type OpenResponse struct {
	SID uint64
	// Replica identifies the server instance that owns the session (the
	// `-replica-id` of a decima-server, or its listen address). Empty on
	// servers predating replica identity. Through a fleet router this is the
	// backing replica actually serving the session, which is how clients,
	// smoke checks and dashboards observe placement and migration.
	Replica string
}

// StageDelta carries one stage's changed runtime counters (absolute new
// values, not increments — idempotent to apply).
type StageDelta struct {
	// Stage indexes into the job's Stages.
	Stage         int
	TasksLaunched int
	TasksDone     int
	ParentsDone   int
	Running       int
}

// JobDelta carries one changed job: its job-level counters (always absolute)
// and the stages an event touched.
type JobDelta struct {
	ID        int
	Executors int
	Limit     int
	Stages    []StageDelta
}

// EventRequest is one scheduling event under a session: only what changed
// since the previous event, plus the cheap per-event scalars. Payload size
// is O(touched state), not O(cluster).
type EventRequest struct {
	SID uint64
	// Seq orders events within the session; the server rejects gaps and
	// replays (it must be the previous event's Seq + 1).
	Seq        uint64
	Time       float64
	JobSeconds float64
	// TotalExecutors, when non-zero, updates the session's executor count:
	// under failure dynamics (executor churn, late arrivals) the pool shrinks
	// and grows mid-run. Zero means unchanged, which keeps pre-churn clients
	// wire-compatible (a real cluster never schedules with zero executors).
	TotalExecutors int
	// NewJobs carries jobs the server has not seen yet, in full wire form.
	NewJobs []JobInfo
	// Order lists every in-system job's ID in observation order (the order
	// schedulers enumerate candidates in). Jobs previously known to the
	// server but absent from Order have left the system and are dropped
	// from the mirror.
	Order []int
	// Deltas carries the jobs an event touched.
	Deltas []JobDelta
	// FreeExecutors is the currently assignable executor set.
	FreeExecutors []ExecutorInfo
	// Deadline is the caller's time budget for this event, relative to its
	// arrival at the server. When the budget is spent before the decision
	// starts — admission backlog, lock wait — the server
	// sheds with ErrOverloaded *before* touching the session mirror, so the
	// client can retry the identical request. Zero means no budget (the
	// pre-overload wire form; old clients never set it, old servers ignore
	// it).
	Deadline time.Duration
}

// EventResponse carries the scheduling decision for one event.
type EventResponse struct {
	ScheduleResponse
}

// CloseRequest releases a session.
type CloseRequest struct {
	SID uint64
}

// CloseResponse acknowledges a close.
type CloseResponse struct{}

// jobStateFromInfo materialises one wire-form job as a fresh sim.JobState
// mirror (static DAG plus runtime counters).
func jobStateFromInfo(ji *JobInfo) *sim.JobState {
	job := &dag.Job{ID: ji.ID, Arrival: ji.Arrival}
	js := &sim.JobState{Job: job, Executors: ji.Executors, Limit: ji.Limit, ExecutorSeconds: map[int]float64{}}
	for _, si := range ji.Stages {
		st := &dag.Stage{
			ID:           si.ID,
			NumTasks:     si.NumTasks,
			TaskDuration: si.TaskDuration,
			MemReq:       si.MemReq,
			CPUReq:       si.CPUReq,
			Parents:      si.Parents,
			Children:     si.Children,
		}
		job.Stages = append(job.Stages, st)
		ss := &sim.StageState{
			Stage:         st,
			Job:           js,
			TasksLaunched: si.TasksLaunched,
			TasksDone:     si.TasksDone,
			ParentsDone:   si.ParentsDone,
			Running:       si.Running,
			Completed:     si.TasksDone == si.NumTasks,
		}
		js.Stages = append(js.Stages, ss)
		if ss.Completed {
			js.StagesDone++
		}
	}
	return js
}

// ResponseFromAction converts a scheduler's action on state into its wire
// form.
func ResponseFromAction(act *sim.Action) *ScheduleResponse {
	if act == nil || act.Stage == nil {
		return &ScheduleResponse{HasAction: false}
	}
	return &ScheduleResponse{
		HasAction: true,
		JobID:     act.Stage.Job.Job.ID,
		StageID:   act.Stage.Stage.ID,
		Limit:     act.Limit,
		Class:     act.Class,
	}
}

// ActionFromResponse resolves a wire response against the local state. It
// accepts only a stage that is Runnable there: the simulator launches the
// tasks of whatever stage it is handed, parents done or not.
func ActionFromResponse(resp *ScheduleResponse, s *sim.State) (*sim.Action, error) {
	if !resp.HasAction {
		return nil, nil
	}
	for _, j := range s.Jobs {
		if j.Job.ID != resp.JobID {
			continue
		}
		if resp.StageID < 0 || resp.StageID >= len(j.Stages) {
			return nil, fmt.Errorf("rpcsvc: stage %d out of range for job %d", resp.StageID, resp.JobID)
		}
		st := j.Stages[resp.StageID]
		if !st.Runnable() {
			return nil, fmt.Errorf("rpcsvc: stage %d of job %d is not runnable", resp.StageID, resp.JobID)
		}
		return &sim.Action{Stage: st, Limit: resp.Limit, Class: resp.Class}, nil
	}
	return nil, fmt.Errorf("rpcsvc: job %d not in state", resp.JobID)
}
