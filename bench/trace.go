package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// tracedRun is the --trace 1 run. Whatever the workload, it climbs the
// replay ladder and runs the layer probes, so every per-layer metric is a
// measurement in every traced run; then it runs the named workload twice —
// tracing off, tracing on — for the process-cost metrics and the tracing
// overhead. Spans go to out/trace-<workload>.json.
func tracedRun(workload string, seed int64, seconds float64) (*record, error) {
	clients := 1
	if spec, ok := servingSpecs[workload]; ok {
		clients = spec.clients
	}
	rec := newRecord(workload, true, seed, seconds, clients)

	ld, err := runLadder(seed, ladderEvents)
	if err != nil {
		return nil, err
	}
	// Early in the first wave, with most of its twenty jobs still in system.
	cp, err := runCoreProbe(seed, ladderEvents/12)
	if err != nil {
		return nil, err
	}
	op, err := runOpenProbe(seed, 40)
	if err != nil {
		return nil, err
	}
	np := runNNProbe()
	rp := runRLProbe(trainReplay, seed, 4)

	t0 := time.Now()
	if workload == "train-replay" {
		trainReplay.evalTraces(seed)
	} else {
		servingSpecs[workload].traces(seed)
	}
	rec.set("workload.gen_ms", float64(time.Since(t0))/1e6)

	// Block by block, then the median over blocks (see ladder.go).
	hb, ab, rb, tb, ib, sb, fb := ld.handler.blocks(), ld.apply.blocks(), ld.rtt.blocks(), ld.tap.blocks(), ld.inSitu.blocks(), ld.session.blocks(), ld.fleet.blocks()
	rttUS := overBlocks(func(b int) float64 { return rb[b] })
	handlerUS := overBlocks(func(b int) float64 { return hb[b] })
	clientUS := overBlocks(func(b int) float64 { return sb[b] - tb[b] })
	sessionUS := overBlocks(func(b int) float64 { return sb[b] })
	hopUS := overBlocks(func(b int) float64 { return fb[b] - sb[b] })
	rungs := rttUS + handlerUS + clientUS
	rec.set("rpcsvc.rtt_us", rttUS)
	rec.set("rpcsvc.gob_req_us", ld.gobReqUS)
	rec.set("rpcsvc.gob_resp_us", ld.gobRespUS)
	rec.set("rpcsvc.req_bytes", ld.reqBytes)
	rec.set("rpcsvc.client_us", clientUS)
	rec.set("rpcsvc.apply_us", overBlocks(func(b int) float64 { return ab[b] }))
	rec.set("rpcsvc.handler_us", handlerUS)
	rec.set("rpcsvc.decide_mean_us", ld.decideMean)
	rec.set("rpcsvc.open_us", op.openUS)
	rec.set("rpcsvc.close_us", op.closeUS)
	rec.set("rpcsvc.first_req_bytes", op.firstReqBytes)
	rec.set("rpcsvc.unattributed_us", sessionUS-rungs)
	rec.set("rpcsvc.lone_client_us", sessionUS)
	rec.set("rpcsvc.event_p99_us", percentile(sortedCopy(ld.session), 99))
	rec.set("ladder.closure_frac", rungs/sessionUS)
	rec.set("core.decide_warm_us", percentile(ld.decide, 50))
	rec.set("core.decide_p99_us", percentile(ld.decide, 99))
	rec.set("core.allocs_per_decide", cp.allocsPerDecide)
	rec.set("core.decide_cold_us", cp.coldUS)
	rec.set("policy.decide_hit_us", cp.hitUS)
	rec.set("gnn.embed_us_per_job", cp.embedPerJobUS)
	rec.set("nn.matmul_small_gflops", np.smallGFLOPs)
	rec.set("nn.matmul_tall_gflops", np.tallGFLOPs)
	rec.set("nn.mlp_infer_us", np.mlpInferUS)
	rec.set("nn.mlp_train_us", np.mlpTrainUS)
	rec.set("fleet.hop_us", hopUS)
	rec.set("fleet.hop_frac", hopUS/sessionUS)
	rec.set("sim.step_us", ld.simStepUS)
	rec.set("sim.avg_jct_s", ld.avgJCT)
	rec.set("rl.iter_p50_ms", rp.iterP50MS)
	rec.set("rl.decisions_per_s", rp.decisionsPerS)
	rec.set("rl.episodes_per_s", rp.episodesPerS)
	rec.set("rl.worker_speedup", rp.workerSpeedup)
	rec.set("rl.alloc_mb_per_iter", rp.allocMBPerIter)
	rec.Samples["core.decide_warm_us"], rec.Samples["core.decide_p99_us"] = len(ld.decide), len(ld.decide)
	rec.Samples["ladder_events"] = ladderEvents
	rec.info("ladder.l3_tap_us", "us", overBlocks(func(b int) float64 { return tb[b] }))
	rec.info("ladder.l3_handler_in_situ_us", "us", overBlocks(func(b int) float64 { return ib[b] }))
	rec.info("ladder.l5_fleet_us", "us", overBlocks(func(b int) float64 { return fb[b] }))
	rec.Notes = append(rec.Notes, fmt.Sprintf(
		"ladder closure: rtt %.1f + handler %.1f + client %.1f = %.1f us of %.1f us mean served event (%.1f%%); unattributed %.1f us",
		rttUS, handlerUS, clientUS, rungs, sessionUS, 100*rungs/sessionUS, sessionUS-rungs))

	// The named workload, tracing off then on, each for a quarter of the
	// window. Process costs come from the untraced pass.
	spans := newSpanLog()
	pass := seconds / 4
	var off, on *tracedPass
	if workload == "train-replay" {
		off, on, err = tracedTraining(trainReplay, seed, pass, spans)
	} else {
		off, on, err = tracedServing(servingSpecs[workload], seed, pass, spans)
	}
	if off == nil {
		return nil, err
	}
	kev := float64(off.events) / 1e3
	rec.set("proc.cpu_s_per_kevent", off.cpu.Seconds()/kev)
	rec.set("proc.alloc_kb_per_event", float64(off.allocBytes)/1024/float64(off.events))
	rec.set("proc.gc_cpu_frac", off.gcCPU/off.cpu.Seconds())
	rec.set("proc.gc_pause_max_us", off.gcPauseMaxUS)
	rec.set("bench.event_p95_us", percentile(off.lat, 95))
	rec.set("bench.event_p99_us", percentile(off.lat, 99))
	rec.set("bench.open_p50_us", percentile(off.open, 50))
	rec.Samples["bench.event_p95_us"], rec.Samples["bench.event_p99_us"], rec.Samples["bench.open_p50_us"] = len(off.lat), len(off.lat), len(off.open)
	rec.set("trace.overhead_frac", 1-on.rate()/off.rate())
	rec.set("rpcsvc.retries", float64(ld.retries+off.retries+on.retries))
	rec.set("rpcsvc.reopens", float64(ld.reopens+off.reopens+on.reopens))
	rec.set("rpcsvc.shed", float64(ld.shed+off.shed+on.shed))
	rec.set("rpcsvc.evictions", float64(ld.evict+off.evict+on.evict))
	rec.set("fleet.migrations", float64(ld.migrations+off.migrations+on.migrations))
	rec.Attempted = off.attempted + on.attempted
	rec.Failed = off.failed + on.failed
	rec.Succeeded = rec.Attempted - rec.Failed
	rec.set("bench.fail_frac", float64(rec.Failed)/float64(rec.Attempted))
	rec.Samples["untraced_events"], rec.Samples["traced_events"] = off.events, on.events

	path := filepath.Join("out", "trace-"+workload+".json")
	if werr := spans.write(path); werr != nil {
		err = errors.Join(err, werr)
	}
	rec.Notes = append(rec.Notes, "spans: "+path)
	for _, lt := range spans.selfTimes() {
		rec.Notes = append(rec.Notes, fmt.Sprintf("span %-16s n=%-7d total %.0f us  self %.0f us  (%.1f us self per span)", lt.Name, lt.Count, lt.TotalUS, lt.SelfUS, lt.SelfUS/float64(lt.Count)))
	}
	return rec, err
}

// tracedPass is one pass of the named workload inside a traced run, with
// the process-wide costs it incurred.
type tracedPass struct {
	events            int
	wall              time.Duration
	cpu               time.Duration
	allocBytes        uint64
	gcCPU             float64 // CPU-seconds the collector used
	gcPauseMaxUS      float64
	attempted, failed int
	retries, reopens  uint64
	shed, evict       uint64
	migrations        uint64
	lat, open         []float64 // pooled samples, sorted, µs
}

func (p *tracedPass) rate() float64 { return float64(p.events) / p.wall.Seconds() }

// gcCPUSeconds reads the collector's cumulative CPU time.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// costed runs fn between two readings of the process counters.
func costed(fn func() (*tracedPass, error)) (*tracedPass, error) {
	before, gc0 := snapProc(), gcCPUSeconds()
	p, err := fn()
	if p == nil {
		return nil, err
	}
	after, gc1 := snapProc(), gcCPUSeconds()
	p.cpu = after.cpu - before.cpu
	p.allocBytes = after.allocBytes - before.allocBytes
	p.gcCPU = gc1 - gc0
	p.gcPauseMaxUS = after.maxPauseSince(before)
	return p, err
}

// tracedServing sets a serving workload up behind taps and runs it twice:
// spans off, then spans on. Both passes are checked by the oracle.
func tracedServing(spec servingSpec, seed int64, seconds float64, spans *spanLog) (off, on *tracedPass, err error) {
	su, err := setUpServing(spec, seed, true)
	if err != nil {
		return nil, nil, err
	}
	defer su.stack.close()
	// The oracle's reference runs stay outside the costed region: they are
	// the benchmark's work, not the workload's.
	one := func(log *spanLog) (*tracedPass, error) {
		for _, tp := range su.stack.taps {
			tp.trace(log)
		}
		var run *servingRun
		p, err := costed(func() (*tracedPass, error) {
			var err error
			if run, err = runServing(spec, su.stack, su.traces, pass{budget: time.Duration(seconds * float64(time.Second)), corruptAt: -1, spans: log}); err != nil {
				return nil, err
			}
			if run.events == 0 {
				return nil, errors.New("traced pass answered no event")
			}
			p := &tracedPass{events: run.events, wall: run.wall, shed: run.shed, evict: run.evicted, migrations: run.migr}
			p.lat, p.open = run.samples()
			return p, nil
		})
		if p == nil {
			return nil, err
		}
		var terr error
		p.attempted, p.failed, terr = run.tally()
		for _, c := range run.clients {
			p.retries += c.stats.Attempts - c.stats.Events
			p.reopens += c.stats.Reopens
		}
		_, verr := run.verify(su.base)
		return p, errors.Join(terr, verr)
	}
	off, err = one(nil)
	if off == nil {
		return nil, nil, err
	}
	on, err2 := one(spans)
	if on == nil {
		return nil, nil, err2
	}
	return off, on, errors.Join(err, err2)
}

// tracedTraining runs the workload twice, spans off then on; its "events"
// are the scheduling decisions the trainer rolled out, and the evaluation
// that follows them supplies the latency samples.
func tracedTraining(spec trainSpec, seed int64, seconds float64, spans *spanLog) (off, on *tracedPass, err error) {
	su := setUpTraining(spec, seed)
	one := func(log *spanLog) (*tracedPass, error) {
		return costed(func() (*tracedPass, error) {
			tp, ev := spec.run(su, seed, time.Duration(seconds*float64(time.Second)), log)
			if len(ev.lat) == 0 || len(ev.open) == 0 {
				return nil, errors.New("traced pass evaluated no episode")
			}
			n := len(tp.iterMS) * spec.episodes
			return &tracedPass{events: int(tp.decisions), wall: tp.wall, attempted: n, lat: pool(ev.lat), open: pool(ev.open)}, nil
		})
	}
	if off, err = one(nil); off == nil {
		return nil, nil, err
	}
	if on, err = one(spans); on == nil {
		return nil, nil, err
	}
	return off, on, nil
}
