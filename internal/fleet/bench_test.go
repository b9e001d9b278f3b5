package fleet_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/rpcsvc"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The fleet scaling benchmark: the concurrent serving load of the rpcsvc
// benchmarks pushed through the router at 1, 2 and 4 replicas. The
// "events/sec" metric is the aggregate fleet throughput; "migrations" pins
// that the steady-state path pays for zero migrations. Run it with
//
//	go test -run '^$' -bench BenchmarkFleetThroughput ./internal/fleet/

const (
	benchExecutors   = 10
	benchConcurrency = 16
)

func benchFleet(b *testing.B, replicas int) {
	base := core.New(core.DefaultConfig(benchExecutors), rand.New(rand.NewSource(42)))
	base.Greedy = true
	rt := fleet.New(fleet.Config{HealthInterval: -1, Logger: quiet()})
	defer rt.Stop()
	for i := 0; i < replicas; i++ {
		srv, err := rpcsvc.ListenAndServeSessions("127.0.0.1:0", rpcsvc.SessionConfig{
			Default:   "decima",
			ReplicaID: "r" + strconv.Itoa(i+1),
			New: func(name string, seed int64) (scheduler.Scheduler, error) {
				return base.Clone(rand.New(rand.NewSource(seed))), nil
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		if err := rt.AddReplica("r"+strconv.Itoa(i+1), srv.Addr(), "", 0); err != nil {
			b.Fatal(err)
		}
	}
	fs, err := fleet.ListenAndServe("127.0.0.1:0", rt)
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()

	jobs := workload.Batch(rand.New(rand.NewSource(7)), 20)
	cfg := sim.SparkDefaults(benchExecutors)

	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < benchConcurrency; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cli, err := rpcsvc.Dial(fs.Addr())
				if err != nil {
					b.Error(err)
					return
				}
				defer cli.Close()
				ss := &rpcsvc.SessionScheduler{Client: cli, Seed: int64(c + 1), Key: "bench-" + strconv.Itoa(c)}
				res := sim.New(cfg, workload.CloneAll(jobs), ss, rand.New(rand.NewSource(int64(c)))).Run()
				if res.Unfinished != 0 || res.Deadlock {
					b.Errorf("session %d: unfinished=%d deadlock=%v", c, res.Unfinished, res.Deadlock)
					return
				}
				atomic.AddInt64(&events, int64(res.Invocations))
				if err := ss.Close(); err != nil {
					b.Error(err)
				}
			}(c)
		}
		wg.Wait()
	}
	b.StopTimer()
	if n := atomic.LoadInt64(&events); n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
		b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "events/sec")
	}
	b.ReportMetric(float64(promCounter(b, rt, "fleet_migrations_total")), "migrations")
}

// promCounter scrapes the router and sums every sample of one counter
// family (all label sets).
func promCounter(b *testing.B, rt *fleet.Router, name string) uint64 {
	var buf bytes.Buffer
	rt.WriteProm(&buf)
	var total uint64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "# ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			b.Fatalf("unparseable sample %q: %v", line, err)
		}
		total += v
	}
	return total
}

// BenchmarkFleetThroughput measures aggregate serving throughput through
// the session-sharding router as the replica count scales.
func BenchmarkFleetThroughput(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) { benchFleet(b, n) })
	}
}
