package online

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/rpcsvc"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchServer starts a session server serving runners of base, with sink as
// the record sink when non-nil.
func benchServer(b *testing.B, base *core.Agent, sink rpcsvc.RecordSink) *rpcsvc.Client {
	b.Helper()
	srv, err := rpcsvc.ListenAndServeSessions("127.0.0.1:0", rpcsvc.SessionConfig{
		Default: "decima",
		New: func(name string, seed int64) (scheduler.Scheduler, error) {
			return scheduler.New(name, scheduler.Options{Seed: seed, Agent: base})
		},
		RecordSink: sink,
	})
	if err != nil {
		b.Fatal(err)
	}
	cli, err := rpcsvc.Dial(srv.Addr())
	if err != nil {
		srv.Close()
		b.Fatal(err)
	}
	b.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	return cli
}

func benchServe(b *testing.B, record bool) {
	const executors = 5
	base := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(77)))
	base.Greedy = true
	// The sink swallows episodes without training — this measures the
	// recording overhead on the serving path alone.
	cli := benchServer(b, base, func(steps []core.ReplayStep) {})

	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := int64(1 + i)
		ss := &rpcsvc.SessionScheduler{Client: cli, Seed: seed, Record: record}
		jobs := workload.Batch(rand.New(rand.NewSource(seed)), 2)
		res := sim.New(sim.SparkDefaults(executors), jobs, ss, rand.New(rand.NewSource(seed))).Run()
		if err := ss.Close(); err != nil {
			b.Fatal(err)
		}
		if res.Deadlock || res.Unfinished != 0 {
			b.Fatalf("session %d did not finish", seed)
		}
		events += res.Invocations
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
}

// BenchmarkOnlineLoop measures the serving-side cost of the online loop:
// full session runs with recording off vs on (the off/on delta is the
// recording tax, bounded at ±2%). A hot-swap is one atomic store and has no
// benchmark.
func BenchmarkOnlineLoop(b *testing.B) {
	b.Run("serve-record-off", func(b *testing.B) { benchServe(b, false) })
	b.Run("serve-record-on", func(b *testing.B) { benchServe(b, true) })
}
