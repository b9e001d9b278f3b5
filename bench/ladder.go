package main

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/nn"
	"repro/internal/rpcsvc"
	"repro/internal/sim"
)

// The replay ladder. One served event is replayed up six rungs, each adding
// one layer to the rung below, so that every layer's cost is measured alone
// and the sum can be checked against the whole path — the per-hop
// estimate-then-validate method of the "Network Performance Estimator"
// paper in PAPERS.md:
//
//	L0  in-process sim + timed Agent.Decide          core.*, sim.step_us
//	L1  recorded requests → Decima.Event in-process  rpcsvc.handler_us, apply_us
//	L2  the same requests → no-op net/rpc server     rpcsvc.rtt_us
//	L3  the same requests → tap → real service       handler in situ vs wire
//	L4  full SessionScheduler.Schedule               rpcsvc.client_us (L4 − L3)
//	L5  the same through fleet.Router                fleet.hop_us (L5 − L4)
//
// Every rung serves the same first ladderEvents events of one session-stream
// trace, and every rung's decisions are checked against L0's. Because the
// rungs see the same events in the same order, they are compared block by
// block — ladderBlocks blocks of consecutive events — and every figure is the
// median over blocks of the block's own figure: one client on a shared box
// is exactly the regime where a disturbance that hits one rung for half a
// second would otherwise be booked to a layer.

const (
	// ladderEvents is the length of each rung: two waves of the trace, short
	// enough that six rungs fit a traced run.
	ladderEvents = 6000
	ladderBlocks = 12
)

// rung is one rung's time per event in µs, in event order, the first event
// (the open sample) left out.
type rung []float64

// blocks returns the mean of each of ladderBlocks runs of consecutive events.
func (r rung) blocks() []float64 {
	out := make([]float64, ladderBlocks)
	for b := range out {
		out[b] = mean(r[b*len(r)/ladderBlocks : (b+1)*len(r)/ladderBlocks])
	}
	return out
}

func rungOf(ns []int64) rung {
	r := make(rung, len(ns))
	for i, d := range ns {
		r[i] = float64(d) / 1e3
	}
	return r
}

// overBlocks returns the median over blocks of f.
func overBlocks(f func(b int) float64) float64 {
	vs := make([]float64, ladderBlocks)
	for b := range vs {
		vs[b] = f(b)
	}
	return median(vs)
}

// ladder is every rung's per-event times plus what fell out on the way.
type ladder struct {
	decide      []float64 // L0 per-event Decide samples, sorted, µs
	simStepUS   float64
	handler     rung    // L1, decima session
	apply       rung    // L1, fifo session
	decideMean  float64 // server's own Stats().Decide over L1
	rtt         rung    // L2
	tap         rung    // L3 round trip
	inSitu      rung    // L3 handler time seen by the tap
	session     rung    // L4
	fleet       rung    // L5
	gobReqUS    float64
	gobRespUS   float64
	reqBytes    float64
	avgJCT      float64
	retries     uint64
	reopens     uint64
	shed, evict uint64
	migrations  uint64
}

func meanUS(total time.Duration, n int) float64 { return float64(total) / 1e3 / float64(n) }

func runLadder(seed int64, events int) (*ladder, error) {
	spec := servingSpecs["session-stream"]
	tr := spec.traces(seed)[0][0]
	base := baseAgent(spec.executors)
	mk := newSessionScheduler(base, spec.executors)
	ld := &ladder{}

	// L0: the agent alone under the simulator.
	sched, err := mk("decima", 1)
	if err != nil {
		return nil, err
	}
	var l0 []int64
	ts := newTimedSched(sim.SchedulerFunc(func(s *sim.State) *sim.Action {
		act, _ := sched.Decide(s) // a local decision cannot fail
		return act
	}))
	ts.maxEvents, ts.lat = events, &l0
	start := time.Now()
	res := tr.run(ts)
	if ts.n < events {
		return nil, fmt.Errorf("ladder trace ended after %d events, need %d", ts.n, events)
	}
	want := outcomeOf(ts, res)
	ld.decide = pool(l0)
	ld.simStepUS = meanUS(ts.cutAt.Sub(start)-ts.busy, ts.n)
	ld.avgJCT = want.avgJCT

	// Recording pass: the stock client against a tap, to capture the exact
	// requests it sends and the responses it got.
	cfg := rpcsvc.SessionConfig{Default: "decima", New: mk}
	recSvc := rpcsvc.NewDecimaSessions(cfg)
	recTap := newTap(recSvc, true)
	recHost, err := hostRPC(recTap)
	if err != nil {
		recSvc.Stop()
		return nil, err
	}
	_, got, cst, err := driveOne(recHost.Addr(), "", tr, events)
	recHost.Close()
	recSvc.Stop()
	if err == nil && got != want {
		err = errors.New("recording pass differs from L0")
	}
	if err != nil {
		return nil, fmt.Errorf("ladder recording pass: %w", err)
	}
	ld.retries += cst.Attempts - cst.Events
	ld.reopens += cst.Reopens
	reqs, resps := recTap.reqs, recTap.resps

	// L1: the handler alone. Same requests, session id rewritten, straight
	// into Decima.Event — once for a decima session (validate + apply +
	// decide) and once for a fifo session (validate + apply, near-free
	// decide).
	openReq := rpcsvc.OpenRequest{Seed: 1, TotalExecutors: spec.executors, MoveDelay: tr.cfg.MoveDelay}
	svc := rpcsvc.NewDecimaSessions(cfg)
	for _, name := range []string{"decima", "fifo"} {
		var open rpcsvc.OpenResponse
		req := openReq
		req.Scheduler = name
		if err := svc.Open(&req, &open); err != nil {
			svc.Stop()
			return nil, fmt.Errorf("ladder L1 open %s: %w", name, err)
		}
		durs := make([]int64, 0, len(reqs))
		for i, rq := range reqs {
			req := *rq
			req.SID = open.SID
			var resp rpcsvc.EventResponse
			t0 := time.Now()
			err := svc.Event(&req, &resp)
			durs = append(durs, int64(time.Since(t0)))
			if err == nil && name == "decima" && resp.ScheduleResponse != resps[i] {
				err = errors.New("replayed decision differs from the recorded one")
			}
			if err != nil {
				svc.Stop()
				return nil, fmt.Errorf("ladder L1 %s event %d: %w", name, i, err)
			}
		}
		if name == "decima" {
			ld.handler = rungOf(durs[1:])
			d := svc.Stats().Decide
			ld.decideMean = d.Sum / float64(d.Count) * 1e6
		} else {
			ld.apply = rungOf(durs[1:])
		}
	}
	st := svc.Stats()
	ld.shed, ld.evict = st.Shed+st.DeadlineMiss, st.EvictedLRU+st.EvictedIdle
	svc.Stop()

	// L2: the wire alone. Same requests to a service that does nothing.
	noopHost, err := hostRPC(noop{resps})
	if err != nil {
		return nil, err
	}
	ld.rtt, err = replay(noopHost.Addr(), openReq, reqs, nil)
	noopHost.Close()
	if err != nil {
		return nil, fmt.Errorf("ladder L2: %w", err)
	}

	// L3: wire and handler together, no client-side session logic.
	l3Svc := rpcsvc.NewDecimaSessions(cfg)
	l3Tap := newTap(l3Svc, false)
	l3Host, err := hostRPC(l3Tap)
	if err != nil {
		l3Svc.Stop()
		return nil, err
	}
	ld.tap, err = replay(l3Host.Addr(), openReq, reqs, resps)
	l3Host.Close()
	l3Svc.Stop()
	if err != nil {
		return nil, fmt.Errorf("ladder L3: %w", err)
	}
	ld.inSitu = rungOf(l3Tap.evDur[1:])

	// L4 and L5: the full client path, direct and through the router.
	for _, viaFleet := range []bool{false, true} {
		s := spec
		if s.fleet = viaFleet; !viaFleet {
			s.servers = 1
		}
		stk, err := startStack(s, base, false)
		if err != nil {
			return nil, err
		}
		key := ""
		if viaFleet {
			key = fleetKeys(1)[0]
		}
		r, got, cst, err := driveOne(stk.addrs[0], key, tr, events)
		shed, evict := stk.serverStats()
		migr, merr := stk.migrations()
		stk.close()
		if err == nil && got != want {
			err = errors.New("served run differs from L0")
		}
		if err = errors.Join(err, merr); err != nil {
			return nil, fmt.Errorf("ladder L4/L5 (fleet=%v): %w", viaFleet, err)
		}
		ld.retries += cst.Attempts - cst.Events
		ld.reopens += cst.Reopens
		ld.shed += shed
		ld.evict += evict
		ld.migrations += migr
		if viaFleet {
			ld.fleet = r
		} else {
			ld.session = r
		}
	}

	ld.gobReqUS, ld.reqBytes, err = gobCost(len(reqs), func(i int) any { return reqs[i] }, func() any { return new(rpcsvc.EventRequest) })
	if err != nil {
		return nil, err
	}
	ld.gobRespUS, _, err = gobCost(len(resps), func(i int) any { return &rpcsvc.EventResponse{ScheduleResponse: resps[i]} }, func() any { return new(rpcsvc.EventResponse) })
	return ld, err
}

// driveOne runs one client's session over the first events events of tr
// against addr and returns the Schedule time of every event after the open.
func driveOne(addr, key string, tr *trace, events int) (r rung, got outcome, st rpcsvc.ClientStatsSnapshot, err error) {
	cli, err := rpcsvc.Dial(addr)
	if err != nil {
		return nil, outcome{}, st, err
	}
	defer cli.Close()
	c := &client{id: 1, key: key, cli: cli, pool: []*trace{tr}}
	c.drive(time.Time{}, events, -1)
	if c.firstErr != nil {
		return nil, outcome{}, c.stats, c.firstErr
	}
	return rungOf(c.lat), c.sessions[0].outcome, c.stats, nil
}

// replay opens a raw session on addr and sends the recorded requests through
// Client.EventRPC. It returns every round trip but the first, as the
// client-side stopwatch does (the first is the open sample). With want
// non-nil each response must equal the recorded one.
func replay(addr string, openReq rpcsvc.OpenRequest, reqs []*rpcsvc.EventRequest, want []rpcsvc.ScheduleResponse) (rung, error) {
	cli, err := rpcsvc.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	open, err := cli.OpenRPC(&openReq)
	if err != nil {
		return nil, err
	}
	durs := make([]int64, 0, len(reqs))
	for i, rq := range reqs {
		req := *rq
		req.SID = open.SID
		t0 := time.Now()
		resp, err := cli.EventRPC(&req)
		durs = append(durs, int64(time.Since(t0)))
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		if want != nil && resp.ScheduleResponse != want[i] {
			return nil, fmt.Errorf("event %d: replayed decision differs from the recorded one", i)
		}
	}
	return rungOf(durs[1:]), cli.CloseRPC(&rpcsvc.CloseRequest{SID: open.SID})
}

// gobCost streams n values through one gob encoder/decoder pair (type
// descriptors go out once, as on a live connection) and returns the mean
// encode+decode time in µs and the mean encoded size in bytes.
func gobCost(n int, in func(i int) any, out func() any) (us, bytesPer float64, err error) {
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	var total time.Duration
	var size int
	for i := 0; i < n; i++ {
		v, dst := in(i), out()
		t0 := time.Now()
		if err := enc.Encode(v); err != nil {
			return 0, 0, err
		}
		sz := buf.Len()
		if err := dec.Decode(dst); err != nil {
			return 0, 0, err
		}
		if i > 0 { // the first message carries the type descriptors
			total += time.Since(t0)
			size += sz
		}
	}
	return meanUS(total, n-1), float64(size) / float64(n-1), nil
}

// coreProbe measures Agent.Decide on one fixed mid-trace state: repeated on
// the unchanged state every embedding hits the cache (candidates, globals
// and heads remain); with a Reset before each call every job re-embeds.
type coreProbe struct {
	hitUS, coldUS, embedPerJobUS, allocsPerDecide float64
	jobs                                          int
}

func runCoreProbe(seed int64, atEvent int) (*coreProbe, error) {
	spec := servingSpecs["session-stream"]
	tr := spec.traces(seed)[0][0]
	sched, err := newSessionScheduler(baseAgent(spec.executors), spec.executors)("decima", 1)
	if err != nil {
		return nil, err
	}
	const hits, colds = 2000, 200
	p := &coreProbe{}
	n := 0
	tr.run(sim.SchedulerFunc(func(s *sim.State) *sim.Action {
		if p.jobs > 0 {
			return nil
		}
		act, _ := sched.Decide(s) // a local decision cannot fail
		if n++; n <= atEvent || act == nil {
			return act // not there yet, or a state with nothing to choose from
		}
		p.jobs = len(s.Jobs)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < hits; i++ {
			sched.Decide(s)
		}
		p.hitUS = meanUS(time.Since(t0), hits)
		runtime.ReadMemStats(&ms1)
		p.allocsPerDecide = float64(ms1.Mallocs-ms0.Mallocs) / hits
		t0 = time.Now()
		for i := 0; i < colds; i++ {
			sched.Reset()
			sched.Decide(s)
		}
		p.coldUS = meanUS(time.Since(t0), colds)
		p.embedPerJobUS = (p.coldUS - p.hitUS) / float64(p.jobs)
		return nil
	}))
	if p.jobs == 0 {
		return nil, fmt.Errorf("core probe: trace ended before event %d", atEvent)
	}
	return p, nil
}

// nnProbe measures the kernels through the package's plain entry points
// only (nn.MatMul, MLP.Forward, Backward) at the stack's two dominant
// shapes: one decision's policy forward and one episode's stacked replay.
type nnProbe struct {
	smallGFLOPs, tallGFLOPs, mlpInferUS, mlpTrainUS float64
}

func runNNProbe() *nnProbe {
	rng := rand.New(rand.NewSource(1))
	randT := func(r, c int) *nn.Tensor {
		d := make([]float64, r*c)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		return nn.New(r, c, d)
	}
	gflops := func(n, k, m, reps int) float64 {
		a, w := randT(n, k), randT(k, m)
		var d time.Duration
		nn.Inference(func() {
			nn.MatMul(a, w) // page in
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				nn.MatMul(a, w)
			}
			d = time.Since(t0)
		})
		return 2 * float64(n) * float64(k) * float64(m) * float64(reps) / d.Seconds() / 1e9
	}
	p := &nnProbe{
		smallGFLOPs: gflops(64, 32, 16, 20000),
		tallGFLOPs:  gflops(8192, 32, 16, 200),
	}
	mlp := nn.NewMLP([]int{24, 32, 16, 1}, nn.ActLeakyReLU, rng)
	x, y := randT(64, 24), randT(64, 1)
	const reps = 5000
	nn.Inference(func() {
		mlp.Forward(x)
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			mlp.Forward(x)
		}
		p.mlpInferUS = meanUS(time.Since(t0), reps)
	})
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		nn.ZeroGrads(mlp.Params())
		nn.MSE(mlp.Forward(x), y).Backward(1)
	}
	p.mlpTrainUS = meanUS(time.Since(t0), reps)
	return p
}

// openProbe measures the session lifecycle on the session-churn shape from
// behind a tap: handler time of Open and Close, and the encoded size of a
// fresh session's first request (every job in full form).
type openProbe struct {
	openUS, closeUS, firstReqBytes float64
}

func runOpenProbe(seed int64, sessions int) (*openProbe, error) {
	spec := servingSpecs["session-churn"]
	spec.clients, spec.pool = 1, sessions
	base := baseAgent(spec.executors)
	svc := rpcsvc.NewDecimaSessions(rpcsvc.SessionConfig{Default: "decima", New: newSessionScheduler(base, spec.executors)})
	defer svc.Stop()
	tp := newTap(svc, true)
	host, err := hostRPC(tp)
	if err != nil {
		return nil, err
	}
	defer host.Close()
	cli, err := rpcsvc.Dial(host.Addr())
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	for _, tr := range spec.traces(seed)[0] {
		c := &client{id: 1, cli: cli, pool: []*trace{tr}}
		c.drive(time.Time{}, 1, -1)
		if c.firstErr != nil {
			return nil, fmt.Errorf("open probe: %w", c.firstErr)
		}
	}
	_, size, err := gobCost(len(tp.reqs), func(i int) any { return tp.reqs[i] }, func() any { return new(rpcsvc.EventRequest) })
	if err != nil {
		return nil, err
	}
	return &openProbe{openUS: meanUS(tp.open, tp.opens), closeUS: meanUS(tp.closeT, tp.closes), firstReqBytes: size}, nil
}

// rlProbe measures the trainer in isolation: the same iterations from the
// same seeds on one rollout worker and on two.
type rlProbe struct {
	iterP50MS, decisionsPerS, episodesPerS, workerSpeedup, allocMBPerIter float64
}

func runRLProbe(spec trainSpec, seed int64, iters int) *rlProbe {
	one := spec.train(seed, 1, 0, nil, forIters(iters))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	two := spec.train(seed, 2, 0, nil, forIters(iters))
	runtime.ReadMemStats(&ms1)
	return &rlProbe{
		iterP50MS:      median(two.iterMS),
		decisionsPerS:  two.decisions / two.wall.Seconds(),
		episodesPerS:   float64(iters*spec.episodes) / two.wall.Seconds(),
		workerSpeedup:  one.wall.Seconds() / two.wall.Seconds(),
		allocMBPerIter: float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(iters) / (1 << 20),
	}
}
