package main

// The ledger's fixed vocabulary. BENCHMARK.json at the repository root
// lists exactly these names, units, directions and bounds (spec_test.go
// keeps the two in step); every later performance or simplicity claim is
// made in them.

// metricSpec names one metric. Bound is the share of the base median by
// which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"session-stream", "integrator steady state: 2 masters, each blocked on one long session to its own server, waves of 20 jobs; one job changes per event, so requests are deltas, the embed cache hits and rpcsvc dominates"},
	{"session-churn", "2 clients open, drive and close short 20-job sessions on one replica: Open/Close, full NewJobs ingest and a cold cache every session; gnn/nn embed and the rpcsvc open path do what session-stream skips"},
	{"fleet-stream", "session-stream's load through fleet.Router to 2 replicas: the only workload with a router hop (SID rewrite, second net/rpc leg), so its gap to session-stream is the fleet layer's"},
	{"train-replay", "researcher loop: rl.Trainer iterations (2 workers), then greedy in-process evaluation of the agent warm-up trained; tracked nn, core replay, sim rollouts and Adam do the work, rpcsvc and fleet none"},
}

// endToEnd is what a user of the system sees, as the clock read it: nothing
// is rescaled. Every workload reports every one of them (the PR driver's
// contract); README.md says what each means on train-replay, where
// throughput is the training loop's and the "client" of the latency is the
// simulator running an in-process evaluation. The tail (p95, p99) and the
// open latency are per-layer metrics and information in every record: their
// run-to-run spread on a 2-vCPU shared VM reaches the largest bound the
// contract allows, and a metric is demoted rather than carried with a bound
// it cannot hold (README.md, "Noise").
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
	{"event_p50_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is what the traced run attributes to single layers, measured
// from outside the packages by timing calls into their public functions.
var perLayer = []metricSpec{
	{Name: "rpcsvc.rtt_us", Unit: "us", Better: "lower"},
	{Name: "rpcsvc.gob_req_us", Unit: "us", Better: "lower"},
	{Name: "rpcsvc.gob_resp_us", Unit: "us", Better: "lower"},
	{Name: "rpcsvc.req_bytes", Unit: "B", Better: "lower"},
	{Name: "rpcsvc.client_us", Unit: "us", Better: "lower"},
	{Name: "rpcsvc.apply_us", Unit: "us", Better: "lower"},
	{Name: "rpcsvc.handler_us", Unit: "us", Better: "lower"},
	{Name: "rpcsvc.decide_mean_us", Unit: "us", Better: "lower"},
	{Name: "rpcsvc.open_us", Unit: "us", Better: "lower"},
	{Name: "rpcsvc.close_us", Unit: "us", Better: "lower"},
	{Name: "rpcsvc.first_req_bytes", Unit: "B", Better: "lower"},
	{Name: "rpcsvc.unattributed_us", Unit: "us", Better: "lower"},
	{Name: "rpcsvc.lone_client_us", Unit: "us", Better: "lower"},
	{Name: "rpcsvc.event_p99_us", Unit: "us", Better: "lower"},
	{Name: "rpcsvc.retries", Unit: "count", Better: "lower"},
	{Name: "rpcsvc.reopens", Unit: "count", Better: "lower"},
	{Name: "rpcsvc.shed", Unit: "count", Better: "lower"},
	{Name: "rpcsvc.evictions", Unit: "count", Better: "lower"},
	{Name: "core.decide_warm_us", Unit: "us", Better: "lower"},
	{Name: "core.decide_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.allocs_per_decide", Unit: "count", Better: "lower"},
	{Name: "core.decide_cold_us", Unit: "us", Better: "lower"},
	{Name: "policy.decide_hit_us", Unit: "us", Better: "lower"},
	{Name: "gnn.embed_us_per_job", Unit: "us", Better: "lower"},
	{Name: "nn.matmul_small_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "nn.matmul_tall_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "nn.mlp_infer_us", Unit: "us", Better: "lower"},
	{Name: "nn.mlp_train_us", Unit: "us", Better: "lower"},
	{Name: "fleet.hop_us", Unit: "us", Better: "lower"},
	{Name: "fleet.hop_frac", Unit: "ratio", Better: "lower"},
	{Name: "fleet.migrations", Unit: "count", Better: "lower"},
	{Name: "sim.step_us", Unit: "us", Better: "lower"},
	{Name: "sim.avg_jct_s", Unit: "sim_s", Better: "lower"},
	{Name: "workload.gen_ms", Unit: "ms", Better: "lower"},
	{Name: "rl.iter_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "rl.decisions_per_s", Unit: "1/s", Better: "higher"},
	{Name: "rl.episodes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "rl.worker_speedup", Unit: "ratio", Better: "higher"},
	{Name: "rl.alloc_mb_per_iter", Unit: "MB", Better: "lower"},
	{Name: "proc.cpu_s_per_kevent", Unit: "s", Better: "lower"},
	{Name: "proc.alloc_kb_per_event", Unit: "kB", Better: "lower"},
	{Name: "proc.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "proc.gc_pause_max_us", Unit: "us", Better: "lower"},
	{Name: "ladder.closure_frac", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.fail_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.event_p95_us", Unit: "us", Better: "lower"},
	{Name: "bench.event_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.open_p50_us", Unit: "us", Better: "lower"},
}

func specByName(specs []metricSpec) map[string]metricSpec {
	m := make(map[string]metricSpec, len(specs))
	for _, s := range specs {
		m[s.Name] = s
	}
	return m
}
