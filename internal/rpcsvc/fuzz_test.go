package rpcsvc

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scheduler"
)

// The session protocol rides net/rpc's gob codec, so the server-side decode
// surface is exactly "gob bytes into OpenRequest/EventRequest". These
// fuzzers feed arbitrary byte streams (seeded with valid, truncated and
// bit-flipped encodings) into that surface: decoding must never panic, and
// must either fail with an error or produce a struct — a malformed frame
// can then only be rejected by the request validators, never crash the
// serving process.

// fuzzSeed encodes v and registers the valid, truncated and bit-flipped
// variants as corpus seeds.
func fuzzSeed(f *testing.F, v any) {
	f.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		f.Fatal(err)
	}
	data := buf.Bytes()
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:1])
	f.Add([]byte{})
	for _, off := range []int{0, len(data) / 3, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x20
		f.Add(mut)
	}
}

func FuzzGobOpenRequest(f *testing.F) {
	fuzzSeed(f, OpenRequest{
		Scheduler:      "decima",
		Seed:           7,
		TotalExecutors: 8,
		MoveDelay:      1.5,
		Key:            "k",
		Deadline:       time.Second,
		Record:         true,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req OpenRequest
		_ = gob.NewDecoder(bytes.NewReader(data)).Decode(&req)
	})
}

func FuzzGobEventRequest(f *testing.F) {
	fuzzSeed(f, EventRequest{
		SID:            3,
		Seq:            1,
		Time:           12.5,
		JobSeconds:     99,
		TotalExecutors: 8,
		NewJobs: []JobInfo{{
			ID: 1, Arrival: 2, Executors: 1, Limit: 4,
			Stages: []StageInfo{{}},
		}},
		Order: []int{1},
		Deltas: []JobDelta{{
			ID: 1, Executors: 1, Limit: 4,
			Stages: []StageDelta{{Stage: 0, TasksLaunched: 1, Running: 1}},
		}},
		FreeExecutors: []ExecutorInfo{{ID: 0, LocalJob: -1}},
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req EventRequest
		_ = gob.NewDecoder(bytes.NewReader(data)).Decode(&req)
	})
}

// FuzzEventSemantics carries decoded requests past the decoder into the
// service: on an in-process server it opens a session, applies a valid first
// event (jobs 1 and 2, two stages each) and then the fuzzed event as the
// session's second, once under "fifo" and once under "decima". A request
// the mirror cannot apply must be rejected by validation. Panic containment
// would turn a panic into a quiet eviction, so the target fails whenever
// Stats counts one.
func FuzzEventSemantics(f *testing.F) {
	const executors = 4
	chain := func(id int) JobInfo {
		return JobInfo{ID: id, Stages: []StageInfo{
			{ID: 0, NumTasks: 2, TaskDuration: 1, CPUReq: 1, Children: []int{1}},
			{ID: 1, NumTasks: 3, TaskDuration: 2, CPUReq: 1, Parents: []int{0}},
		}}
	}
	free := []ExecutorInfo{{ID: 0, Mem: 1, LocalJob: 1}, {ID: 1, Mem: 1, LocalJob: -1}}
	for _, req := range []EventRequest{
		// A delta for a job the order omits.
		{Order: []int{}, Deltas: []JobDelta{{ID: 1}}},
		// A well-formed second event: job 3 arrives, job 1 leaves, job 2 runs.
		{Time: 3, JobSeconds: 6, NewJobs: []JobInfo{chain(3)}, Order: []int{2, 3},
			Deltas:        []JobDelta{{ID: 2, Executors: 1, Limit: 2, Stages: []StageDelta{{Stage: 0, TasksLaunched: 1, Running: 1}}}},
			FreeExecutors: free[1:]},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	base := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(1)))
	d := NewDecimaSessions(SessionConfig{New: func(name string, seed int64) (scheduler.Scheduler, error) {
		return scheduler.New(name, scheduler.Options{Seed: seed, Agent: base})
	}})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req EventRequest
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&req) != nil {
			return
		}
		for _, name := range []string{"fifo", "decima"} {
			var open OpenResponse
			if err := d.Open(&OpenRequest{Scheduler: name, TotalExecutors: executors}, &open); err != nil {
				t.Fatal(err)
			}
			var resp EventResponse
			first := &EventRequest{SID: open.SID, Seq: 1, NewJobs: []JobInfo{chain(1), chain(2)}, Order: []int{1, 2}, FreeExecutors: free}
			if err := d.Event(first, &resp); err != nil {
				t.Fatalf("%s: valid first event: %v", name, err)
			}
			req.SID, req.Seq, req.Deadline = open.SID, 2, 0
			panics := d.Stats().Panics
			_ = d.Event(&req, &resp)
			d.Close(&CloseRequest{SID: open.SID}, &CloseResponse{})
			if d.Stats().Panics != panics {
				t.Fatalf("%s: event panicked: %+v", name, req)
			}
		}
	})
}

// TestOpenRequestGobCompat pins the wire compatibility the Record field
// relies on: frames from pre-online clients (no Record field) decode with
// Record=false, and frames carrying Record decode fine into pre-online
// servers (gob drops fields the receiver lacks).
func TestOpenRequestGobCompat(t *testing.T) {
	// The pre-online wire form of OpenRequest.
	type openRequestV1 struct {
		Scheduler      string
		Seed           int64
		TotalExecutors int
		MoveDelay      float64
		Key            string
		Deadline       time.Duration
	}

	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(openRequestV1{Scheduler: "decima", Seed: 5, TotalExecutors: 4}); err != nil {
		t.Fatal(err)
	}
	var req OpenRequest
	if err := gob.NewDecoder(&old).Decode(&req); err != nil {
		t.Fatalf("decode pre-online frame: %v", err)
	}
	if req.Record {
		t.Fatal("pre-online frame decoded with Record=true")
	}
	if req.Scheduler != "decima" || req.Seed != 5 || req.TotalExecutors != 4 {
		t.Fatalf("pre-online frame mangled: %+v", req)
	}

	var new_ bytes.Buffer
	if err := gob.NewEncoder(&new_).Encode(OpenRequest{Scheduler: "decima", Record: true}); err != nil {
		t.Fatal(err)
	}
	var oldReq openRequestV1
	if err := gob.NewDecoder(&new_).Decode(&oldReq); err != nil {
		t.Fatalf("pre-online decoder rejects a recording frame: %v", err)
	}
	if oldReq.Scheduler != "decima" {
		t.Fatalf("recording frame mangled for old decoder: %+v", oldReq)
	}
}
