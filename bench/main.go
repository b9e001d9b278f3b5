// Command bench is the repository's performance ledger: four closed-loop
// workloads against the shipping defaults of rpcsvc, fleet and rl, six
// end-to-end metrics each, a correctness oracle on every run, and a traced
// run that attributes one served event layer by layer. README.md in this
// directory is the manual; BENCHMARK.json at the repository root names the
// command.
//
//	go run -C bench . --workload session-stream --seed 1 --seconds 20 --trace 0
//	go run -C bench . --workload session-stream --seed 1 --seconds 20 --trace 1
//	go run -C bench . compare A1.json A2.json -- B1.json B2.json
//	go run -C bench . --aa 5
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupRounds is how many times a run sets the workload up from nothing;
// setup_s is the median, so one slow listener start does not decide it.
const setupRounds = 5

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "workload to run: session-stream, session-churn, fleet-stream or train-replay")
		seed     = flag.Int64("seed", 1, "input seed: the same seed generates the same traces")
		seconds  = flag.Float64("seconds", 20, "length of the measured pass")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		out      = flag.String("out", "", "where to write the run's full record (default out/<workload>-seed<seed>-trace<trace>.json)")
		corrupt  = flag.Int("corrupt", -1, "serving workloads: flip the served action of this event index, to see the oracle fail")
		aa       = flag.Int("aa", 0, "run this many A/A pairs of every workload through compare and fail on anything but \"unchanged\"")
	)
	flag.Parse()
	if *aa > 0 {
		os.Exit(aaMain(*aa, *seed, *seconds))
	}
	if !known(*workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown -workload %q; the workloads are:\n", *workload)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", w.Name, w.Why)
		}
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}

	var (
		rec *record
		err error
	)
	if *trace != 0 {
		rec, err = tracedRun(*workload, *seed, *seconds)
	} else {
		rec, err = measuredRun(*workload, *seed, *seconds, *corrupt)
	}
	if rec == nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, s := range rec.specs() {
		if _, ok := rec.Metrics[s.Name]; !ok {
			err = errors.Join(err, fmt.Errorf("metric %s was not measured", s.Name))
		}
	}
	rec.Correct = err == nil
	if err != nil {
		rec.Notes = append(rec.Notes, "FAILED: "+err.Error())
	}
	path := *out
	if path == "" {
		path = filepath.Join("out", fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *trace))
	}
	if werr := rec.write(path); werr != nil {
		fmt.Fprintln(os.Stderr, "bench:", werr)
		os.Exit(1)
	}
	rec.print(os.Stdout, path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
		os.Exit(1)
	}
}

func known(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// measuredRun is the --trace 0 run: set the workload up setupRounds times,
// measure one pass with tracing off, then check it against the oracle. A
// non-nil record with a non-nil error is a run that measured but failed its
// oracle.
func measuredRun(workload string, seed int64, seconds float64, corruptAt int) (*record, error) {
	// Collect before the clock starts, so every run begins from the same
	// heap whatever flag parsing and package init left behind.
	runtime.GC()
	debug.FreeOSMemory()
	if workload == "train-replay" {
		return measureTraining(trainReplay, seed, seconds)
	}
	return measureServing(servingSpecs[workload], seed, seconds, corruptAt)
}

func measureServing(spec servingSpec, seed int64, seconds float64, corruptAt int) (*record, error) {
	rec := newRecord(spec.name, false, seed, seconds, spec.clients)
	var su *servingSetup
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if su != nil {
			su.stack.close()
		}
		t0 := time.Now()
		var err error
		if su, err = setUpServing(spec, seed, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer su.stack.close()

	steal0 := readCPUTimes()
	run, err := runServing(spec, su.stack, su.traces, pass{budget: time.Duration(seconds * float64(time.Second)), corruptAt: corruptAt})
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	rec.info("host.steal_frac", "ratio", readCPUTimes().stealSince(steal0))
	lat, open := run.samples()
	if len(lat) == 0 || len(open) == 0 {
		return nil, errors.New("measured pass answered no event or opened no session")
	}
	rec.setTimes(setups, float64(run.events)/run.wall.Seconds(), lat, open)
	rec.set("peak_rss_mb", rss)
	rec.InputDigest = inputDigest(su.traces...)
	rec.Samples["events_per_s"] = run.events
	rec.Samples["sessions"] = run.sessions()

	var terr error
	rec.Attempted, rec.Failed, terr = run.tally()
	rec.Succeeded = rec.Attempted - rec.Failed
	avgJCT, verr := run.verify(su.base)
	rec.info("avg_jct_s", "sim_s", avgJCT)
	rec.info("fail_frac", "ratio", float64(rec.Failed)/float64(rec.Attempted))
	rec.info("workload.gen_ms", "ms", su.genMS)
	if rec.Failed > 0 && terr == nil {
		terr = fmt.Errorf("%d of %d operations failed", rec.Failed, rec.Attempted)
	}
	return rec, errors.Join(terr, verr)
}

// setTimes reports the time metrics as they were observed: the median
// set-up, events over wall time, and percentiles of the pooled samples
// (sorted, µs). The tail and the open latency are kept beside the bounded
// metrics in the record, with their sample counts.
func (r *record) setTimes(setups []float64, rate float64, lat, open []float64) {
	r.set("setup_s", median(setups))
	r.set("events_per_s", rate)
	r.set("event_p50_us", percentile(lat, 50))
	r.info("event_p95_us", "us", percentile(lat, 95))
	r.info("event_p99_us", "us", percentile(lat, 99))
	r.info("open_p50_us", "us", percentile(open, 50))
	r.Samples["setup_s"] = len(setups)
	r.Samples["event_p50_us"], r.Samples["event_p95_us"], r.Samples["event_p99_us"] = len(lat), len(lat), len(lat)
	r.Samples["open_p50_us"] = len(open)
}

func measureTraining(spec trainSpec, seed int64, seconds float64) (*record, error) {
	rec := newRecord("train-replay", false, seed, seconds, 1)
	var su *trainSetup
	var setups []float64
	var hashErr error
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		next := setUpTraining(spec, seed)
		setups = append(setups, time.Since(t0).Seconds())
		if su != nil && !equalHashes(su.hashes, next.hashes) {
			hashErr = errors.New("two warm-up passes from the same seeds trained different parameters")
		}
		su = next
	}

	steal0 := readCPUTimes()
	tp, ev := spec.run(su, seed, time.Duration(seconds*float64(time.Second)), nil)
	rss := peakRSSMB()
	rec.info("host.steal_frac", "ratio", readCPUTimes().stealSince(steal0))
	if len(ev.lat) == 0 || len(ev.open) == 0 {
		return nil, errors.New("measured pass evaluated no episode")
	}
	// Throughput is the training loop's; latencies are the evaluation's.
	rec.setTimes(setups, tp.decisions/tp.wall.Seconds(), pool(ev.lat), pool(ev.open))
	rec.set("peak_rss_mb", rss)
	rec.InputDigest = inputDigest(su.pool)
	episodes := len(tp.iterMS) * spec.episodes
	rec.Samples["events_per_s"] = int(tp.decisions)
	rec.Samples["iterations"] = len(tp.iterMS)
	rec.Samples["eval_events"] = ev.events
	rec.info("rl.episodes_per_s", "1/s", float64(episodes)/tp.wall.Seconds())
	rec.info("rl.iter_p50_ms", "ms", median(tp.iterMS))
	rec.info("workload.gen_ms", "ms", su.genMS)

	rec.Attempted = episodes + ev.events
	rec.Succeeded = rec.Attempted
	if !equalHashes(su.hashes, tp.hashes) && hashErr == nil {
		hashErr = errors.New("the measured pass did not reproduce the warm-up pass's parameter hashes")
	}
	avgJCT, verr := ev.verify(su.agent)
	rec.info("avg_jct_s", "sim_s", avgJCT)
	rec.info("fail_frac", "ratio", 0)
	rec.Notes = append(rec.Notes, fmt.Sprintf("parameter hash after %d iterations: %016x", len(tp.hashes), tp.hashes[len(tp.hashes)-1]))
	return rec, errors.Join(hashErr, verr)
}

// equalHashes compares the common prefix of two per-iteration hash lists
// (a short measured pass may finish fewer iterations than the warm-up).
func equalHashes(a, b []uint64) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return n > 0
}

func (r *servingRun) sessions() int {
	n := 0
	for _, c := range r.clients {
		n += len(c.sessions)
	}
	return n
}

// set records a metric of the run's own kind (end-to-end in a measured run,
// per-layer in a traced one); these are what the last output line carries.
func (r *record) set(name string, v float64) {
	r.Metrics[name] = value{v, specByName(r.specs())[name].Unit}
}

// specs are the run's contracted metrics.
func (r *record) specs() []metricSpec {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// info records a number worth keeping in the ledger that is not part of the
// run's contracted metric set.
func (r *record) info(name, unit string, v float64) { r.Metrics[name] = value{v, unit} }

// result extracts the contracted last line from the record.
func (r *record) result() result {
	res := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, s := range r.specs() {
		res.Metrics[s.Name] = r.Metrics[s.Name]
	}
	return res
}

func (r *record) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print writes every metric by name with its unit, the sample counts behind
// the percentiles, and last the one-line result the PR driver parses.
func (r *record) print(w *os.File, path string) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v  clients %d\n", r.Workload, r.Seed, r.Seconds, r.Trace, r.Clients)
	fmt.Fprintf(w, "commit %s  %s  GOMAXPROCS %d  nproc %d  %s\n", r.Commit, r.GoVersion, r.GOMAXPROCS, r.NumCPU, r.CPUModel)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("  %-28s %14.4f %s", n, m.Value, m.Unit)
		if c, ok := r.Samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "operations: attempted %d  succeeded %d  failed %d\n", r.Attempted, r.Succeeded, r.Failed)
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	fmt.Fprintln(w, "record:", path)
	b, err := json.Marshal(r.result())
	if err != nil {
		panic(err) // a map of plain structs always marshals
	}
	fmt.Fprintf(w, "%s\n", b)
}
