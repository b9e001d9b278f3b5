// Command decima-smoke is the end-to-end check of the serving binaries. It
// starts real decima-server and decima-fleet processes and runs five
// scenarios against them in a fixed order, stopping with a non-zero exit at
// the first failure:
//
//   - serve: the reference workload (seed 1, 6 jobs, 8 executors) over one
//     session to a plain server: at least 100 scheduling events, no RPC
//     error, then a clean SIGINT shutdown. Its schedule is the reference the
//     next three scenarios must reproduce.
//   - restart: the reference workload while the server is SIGKILLed
//     mid-session and a replacement started on the same address; the client
//     must ride out the crash (retry, redial, reopen from its snapshot).
//   - chaos: the reference workload against a server with a 1-slot admission
//     bound that noise sessions keep saturated, over a transport wrapped by
//     internal/chaos (seeded latency and connection resets); the client must
//     absorb real overload sheds as well as transient faults.
//   - fleet: the reference workload through a decima-fleet router with three
//     spawned replicas, SIGKILLing the session's replica at one third of the
//     run and draining its next host at two thirds; the router's /metrics
//     must show both migrations with one TYPE line per metric name.
//   - online: a decima-train process publishes a one-iteration model into
//     a temporary registry; a server started with -model on it must report
//     it on /healthz before any traffic, and then, with the online trainer
//     on, recorded sessions must drive /metrics to a hot-swapped higher
//     version that /healthz and the registry on disk agree on.
//
// Schedules are compared whole: every completed job's ID and completion time.
// A failure, the 2-minute deadline and an interrupt all end in fail, which
// kills every process the run started, a router's spawned replicas
// included, before it exits. The decima-train binary is taken from the
// directory of -bin.
//
//	go build -o bin/decima-server ./cmd/decima-server
//	go build -o bin/decima-fleet ./cmd/decima-fleet
//	go build -o bin/decima-train ./cmd/decima-train
//	go run ./cmd/decima-smoke -bin bin/decima-server -fleet-bin bin/decima-fleet
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/rpcsvc"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	refSeed   = 1 // the reference workload: seed, jobs and cluster size
	refJobs   = 6
	executors = 8
	minEvents = 100 // the reference must drive at least this many events
	loopback  = "127.0.0.1:0"
	listening = "listening on " // decima-server's RPC banner
	timeout   = 2 * time.Minute
)

var (
	serverBin = flag.String("bin", "bin/decima-server", "path to the decima-server binary (decima-train is taken from the same directory)")
	fleetBin  = flag.String("fleet-bin", "bin/decima-fleet", "path to the decima-fleet binary")
)

// ref is the serve scenario's run: the schedule restart, chaos and fleet
// must reproduce.
var ref *sim.Result

// started holds every process start launched, each the leader of its own
// process group; procMu guards it.
var (
	procMu  sync.Mutex
	started []*exec.Cmd
)

// fail logs a failure, SIGKILLs the process group of every process start
// launched — a router's spawned replicas are in its group — and exits
// non-zero. A group that already exited answers ESRCH, which is ignored.
// procMu stays held, so no process starts after the kill.
func fail(format string, args ...any) {
	procMu.Lock()
	for _, cmd := range started {
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	}
	log.Fatalf(format, args...)
}

func main() {
	flag.Parse()
	time.AfterFunc(timeout, func() { fail("deadline %s exceeded", timeout) })
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() { fail("signal %v", <-sigs) }()
	for _, sc := range []struct {
		name string
		run  func() string
	}{{"serve", serve}, {"restart", restart}, {"chaos", chaosRun}, {"fleet", fleet}, {"online", online}} {
		log.SetPrefix("smoke " + sc.name + ": ")
		fmt.Printf("SMOKE OK %s: %s\n", sc.name, sc.run())
	}
}

// start launches bin with args in a new process group, echoes its output
// prefixed with [tag], and returns once every banner has been printed, with
// the address that follows each banner in the same order. A supervisor
// echoes its children's output too, so its banners must not match theirs.
func start(tag, bin string, banners []string, args ...string) (*exec.Cmd, []string) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		fail("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	procMu.Lock()
	err = cmd.Start()
	if err == nil {
		started = append(started, cmd)
	}
	procMu.Unlock()
	if err != nil {
		fail("start %s: %v", bin, err)
	}
	addrs := make([]string, len(banners))
	missing := len(banners)
	sc := bufio.NewScanner(stdout)
	for missing > 0 && sc.Scan() {
		line := sc.Text()
		fmt.Printf("[%s] %s\n", tag, line)
		for i, b := range banners {
			if j := strings.LastIndex(line, b); j >= 0 && addrs[i] == "" {
				addrs[i] = strings.TrimSpace(line[j+len(b):])
				missing--
			}
		}
	}
	if missing > 0 {
		fail("%s never announced all of %q", tag, banners)
	}
	// Keep draining so the process never blocks on a full pipe and its
	// shutdown messages reach the log.
	go func() {
		for sc.Scan() {
			fmt.Printf("[%s] %s\n", tag, sc.Text())
		}
	}()
	return cmd, addrs
}

// startServer launches decima-server on addr ("host:0" picks a port) and
// returns it with its RPC address and the addresses after any extra banners.
func startServer(addr string, banners []string, extra ...string) (*exec.Cmd, []string) {
	args := append([]string{"-addr", addr, "-executors", fmt.Sprint(executors)}, extra...)
	return start("server", *serverBin, append([]string{listening}, banners...), args...)
}

// stop signals a process and requires a clean exit.
func stop(cmd *exec.Cmd, sig os.Signal) {
	if err := cmd.Process.Signal(sig); err != nil {
		fail("signal %s: %v", cmd.Path, err)
	}
	if err := cmd.Wait(); err != nil {
		fail("%s did not shut down cleanly: %v", cmd.Path, err)
	}
}

// dial connects an RPC client; a nil dialer uses the plain TCP one.
func dial(addr string, d func(string) (net.Conn, error)) *rpcsvc.Client {
	cli, err := rpcsvc.DialWith(addr, d)
	if err != nil {
		fail("dial %s: %v", addr, err)
	}
	return cli
}

// simulate runs the seeded batch workload of n jobs under s.
func simulate(s sim.Scheduler, seed int64, n int) *sim.Result {
	jobs := workload.Batch(rand.New(rand.NewSource(seed)), n)
	return sim.New(sim.SparkDefaults(executors), jobs, s, rand.New(rand.NewSource(seed))).Run()
}

// run is simulate that requires every job to finish.
func run(s sim.Scheduler, seed int64, n int) *sim.Result {
	res := simulate(s, seed, n)
	if res.Deadlock || res.Unfinished != 0 {
		fail("run failed: unfinished=%d deadlock=%v", res.Unfinished, res.Deadlock)
	}
	return res
}

// session runs the seeded workload of n jobs over one session on cli and
// requires that no RPC attempt failed and that the session closes.
func session(cli *rpcsvc.Client, seed int64, n int, record bool) *sim.Result {
	var rpcErr error
	ss := &rpcsvc.SessionScheduler{Client: cli, Seed: seed, Record: record, OnError: func(e error) { rpcErr = e }}
	res := run(ss, seed, n)
	if rpcErr != nil {
		fail("session RPC error: %v", rpcErr)
	}
	if err := ss.Close(); err != nil {
		fail("close session: %v", err)
	}
	return res
}

// schedule flattens the schedule-determining outcome of a run: the
// aggregates and every completed job's ID and completion time.
func schedule(r *sim.Result) string {
	s := fmt.Sprintf("jct=%v ms=%v js=%v inv=%d done=%d", r.AvgJCT(), r.Makespan, r.JobSeconds, r.Invocations, len(r.Completed))
	for _, j := range r.Completed {
		s += fmt.Sprintf(" %d:%v", j.ID, j.Completion)
	}
	return s
}

// healed requires that faults reached the session client (errs > 0), that
// it healed instead of degrading, that its run reproduced the reference
// schedule, and that the session closes.
func healed(ss *rpcsvc.SessionScheduler, errs int, res *sim.Result) {
	if errs == 0 {
		fail("no fault reached the session client")
	}
	if ss.Degraded() {
		fail("client fell back to degraded mode instead of healing")
	}
	if got, want := schedule(res), schedule(ref); got != want {
		fail("healed run diverged from the reference:\n  healed    %s\n  reference %s", got, want)
	}
	if err := ss.Close(); err != nil {
		fail("close session: %v", err)
	}
}

// serve runs the reference workload against a plain server, records it in
// ref and shuts the server down with SIGINT.
func serve() string {
	cmd, addrs := startServer(loopback, nil)
	cli := dial(addrs[0], nil)
	defer cli.Close()
	ref = session(cli, refSeed, refJobs, false)
	if ref.Invocations < minEvents {
		fail("reference drove %d scheduling events, want at least %d", ref.Invocations, minEvents)
	}
	stop(cmd, os.Interrupt)
	return fmt.Sprintf("%d scheduling events over one session, clean shutdown", ref.Invocations)
}

// restart SIGKILLs the server halfway through the reference workload and
// starts a replacement on the same address.
func restart() string {
	cmd, addrs := startServer(loopback, nil)
	addr := addrs[0]
	cli := dial(addr, nil)
	defer cli.Close()

	errs, n, killAt := 0, 0, ref.Invocations/2
	ss := &rpcsvc.SessionScheduler{
		Client: cli, Seed: refSeed,
		MaxRetries: 10, Backoff: 50 * time.Millisecond,
		OnError: func(error) { errs++ },
	}
	crash := sim.SchedulerFunc(func(st *sim.State) *sim.Action {
		if n++; n == killAt {
			fmt.Printf("smoke: SIGKILL server at event %d\n", n)
			if err := cmd.Process.Kill(); err != nil {
				fail("kill server: %v", err)
			}
			cmd.Wait() // release the port before rebinding
			cmd, _ = startServer(addr, nil)
		}
		return ss.Schedule(st)
	})
	res := run(crash, refSeed, refJobs)
	healed(ss, errs, res)
	stop(cmd, os.Interrupt)
	return fmt.Sprintf("server killed at event %d/%d, session healed to the reference schedule (%d errors ridden out)", killAt, ref.Invocations, errs)
}

// chaosRun runs the reference workload on a server with -max-inflight 1
// while background noise sessions keep its admission slot busy and the
// observed session's transport injects latency and resets. (With two
// slots, a third event in flight needs a handler descheduled mid-decision:
// on a 2-vCPU VM, 3 of 12 runs saw no shed at all.) Sheds happen
// before the server mirror mutates, so a retried event decides exactly as
// an unimpeded one, and the healed schedule must equal the reference.
func chaosRun() string {
	cmd, addrs := startServer(loopback, nil, "-max-inflight", "1")
	addr := addrs[0]

	// Noise pumps run the server's default (decima) policy: each pump event
	// holds its slot for a whole inference forward, which makes collisions
	// with the observed session frequent rather than razor-thin.
	done := make(chan struct{})
	var pumps sync.WaitGroup
	for p := 0; p < 6; p++ {
		pumps.Add(1)
		go func(p int) {
			defer pumps.Done()
			cli := dial(addr, nil)
			defer cli.Close()
			for round := int64(1); ; round++ {
				select {
				case <-done:
					return
				default:
				}
				ss := &rpcsvc.SessionScheduler{
					Client: cli, Seed: int64(p)*1000 + round,
					MaxRetries: 50, Backoff: 2 * time.Millisecond,
				}
				simulate(ss, round, 2)
				ss.Close()
			}
		}(p)
	}

	// At this seed a 3% reset rate first fires at op 32 of the session's
	// first connection, well inside the run; at 1% the first reset would
	// fall past its last op.
	inj := chaos.New(chaos.Config{Seed: refSeed, Latency: 2 * time.Millisecond, ResetProb: 0.03})
	cli := dial(addr, inj.Dialer())
	defer cli.Close()
	errs := 0
	ss := &rpcsvc.SessionScheduler{
		Client: cli, Seed: refSeed,
		MaxRetries: 40, Backoff: 5 * time.Millisecond,
		MaxElapsed: 30 * time.Second,
		Deadline:   5 * time.Second,
		OnError:    func(error) { errs++ },
	}
	res := run(ss, refSeed, refJobs)
	close(done)
	pumps.Wait()
	cs := ss.Stats()
	if cs.Overloaded < 1 {
		fail("no overload shed reached the client (errors=%d, stats %+v)", errs, cs)
	}
	if cs.Transient < 1 {
		fail("no injected transport fault reached the client (errors=%d, stats %+v)", errs, cs)
	}
	healed(ss, errs, res)
	stop(cmd, os.Interrupt)
	return fmt.Sprintf("healed to the reference schedule (%d errors ridden out: %d overload sheds, %d transient faults, %d reopens)",
		errs, cs.Overloaded, cs.Transient, cs.Reopens)
}

// fleet runs the reference workload through a router with three spawned
// replicas, SIGKILLing the session's replica at one third of the run and
// draining its next host at two thirds.
func fleet() string {
	cmd, addrs := start("fleet", *fleetBin, []string{"fleet router listening on ", "fleet admin http on "},
		"-addr", loopback, "-metrics-addr", loopback, "-spawn", "3", "-server-bin", *serverBin,
		"-executors", fmt.Sprint(executors), "-health-interval", "100ms", "-down-after", "1")
	admin := addrs[1]
	cli := dial(addrs[0], nil)
	defer cli.Close()

	errs, n := 0, 0
	ss := &rpcsvc.SessionScheduler{
		Client: cli, Seed: refSeed, Key: "smoke-fleet",
		MaxRetries: 10, Backoff: 50 * time.Millisecond,
		OnError: func(error) { errs++ },
	}
	killAt, drainAt := ref.Invocations/3, 2*ref.Invocations/3
	var killed, drained string
	faults := sim.SchedulerFunc(func(st *sim.State) *sim.Action {
		switch n++; n {
		case killAt:
			killed = ss.Replica()
			pid := replicaPID(admin, killed)
			fmt.Printf("smoke: SIGKILL replica %s (pid %d) at event %d\n", killed, pid, n)
			if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
				fail("kill replica %s: %v", killed, err)
			}
		case drainAt:
			drained = ss.Replica()
			if drained == "" || drained == killed {
				fail("session on %q at drain point (killed %q): failover never happened", drained, killed)
			}
			fmt.Printf("smoke: draining replica %s at event %d: %s\n", drained, n, strings.TrimSpace(string(get(admin, "/drain?replica="+drained))))
		}
		return ss.Schedule(st)
	})
	res := run(faults, refSeed, refJobs)
	if final := ss.Replica(); final == killed || final == drained {
		fail("session ended on %q (killed %q, drained %q)", final, killed, drained)
	}
	if cs := ss.Stats(); cs.Evicted < 1 || cs.WrongShard < 1 {
		fail("recovery counters %+v: want Evicted>=1 (kill) and WrongShard>=1 (drain)", cs)
	}
	prom := string(get(admin, "/metrics"))
	for _, want := range []string{
		`fleet_replica_sessions{replica="`,
		`fleet_migrations_total{reason="drain"} 1`,
		`fleet_migrations_total{reason="failover"} 1`,
		"fleet_replica_events_total",
		"fleet_replica_decide_latency_seconds_bucket",
	} {
		if !strings.Contains(prom, want) {
			fail("/metrics missing %q:\n%s", want, prom)
		}
	}
	// Three replicas feed every per-replica family; each keeps one TYPE line.
	typed := map[string]int{}
	for _, line := range strings.Split(prom, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			if typed[f[2]]++; typed[f[2]] > 1 {
				fail("/metrics repeats the TYPE line of %s:\n%s", f[2], prom)
			}
		}
	}
	healed(ss, errs, res)
	// SIGTERM drains the whole fleet; router and surviving replicas must exit.
	stop(cmd, syscall.SIGTERM)
	return fmt.Sprintf("healed SIGKILL of %s at event %d and drain of %s at event %d to the reference schedule (%d errors ridden out)",
		killed, killAt, drained, drainAt, errs)
}

// online seeds a temporary registry with a decima-train run, serves that
// model from an -online server, and drives recorded sessions until the
// trainer has published a newer version and hot-swapped the live sessions
// onto it.
func online() string {
	regDir, err := os.MkdirTemp("", "decima-smoke-registry-")
	if err != nil {
		fail("registry tempdir: %v", err)
	}
	defer os.RemoveAll(regDir)
	train, _ := start("train", filepath.Join(filepath.Dir(*serverBin), "decima-train"), []string{"published "},
		"-iters", "1", "-executors", fmt.Sprint(executors), "-registry", regDir, "-publish", "online")
	if err := train.Wait(); err != nil {
		fail("decima-train: %v", err)
	}
	cmd, addrs := startServer(loopback, []string{"ops http on "},
		"-registry", regDir, "-model", "online", "-online", "-online-publish-every", "2", "-http", loopback)
	ops := addrs[1]
	if v := servedVersion(ops); v != 1 {
		fail("/healthz serves online@%d before any traffic, want online@1", v)
	}
	cli := dial(addrs[0], nil)
	defer cli.Close()

	// Each session reaches the trainer on Close, and the server publishes
	// and swaps every 2 trained episodes, so a handful of rounds must
	// surface online_swaps_total >= 1.
	const maxRounds = 30
	swapped := false
	for round := int64(1); round <= maxRounds && !swapped; round++ {
		res := session(cli, round, 4, true)
		// Give the trainer a beat to consume the queue.
		for wait := 0; wait < 40 && !swapped; wait++ {
			page := string(get(ops, "/metrics"))
			if v, ok := promValue(page, "online_swaps_total"); ok && v >= 1 {
				swapped = true
				if rec, ok := promValue(page, "decima_recording_opens_total"); !ok || rec < 1 {
					fail("swap happened but decima_recording_opens_total=%g: recording was never on", rec)
				}
				if mv, ok := promValue(page, "decima_model_version"); !ok || mv < 2 {
					fail("swap happened but decima_model_version=%g", mv)
				}
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		fmt.Printf("smoke: round %d ok, %d events, swapped=%v\n", round, res.Invocations, swapped)
	}
	if !swapped {
		fail("no hot-swap after %d recorded sessions:\n%s", maxRounds, get(ops, "/metrics"))
	}

	ver := servedVersion(ops)
	if ver < 2 {
		fail("/healthz serves online@%d after the swap, want a version above the trained online@1", ver)
	}
	if _, err := os.Stat(filepath.Join(regDir, "online", fmt.Sprintf("v%d.ckpt", ver))); err != nil {
		fail("served checkpoint missing: %v", err)
	}
	stop(cmd, os.Interrupt)
	return fmt.Sprintf("served decima-train's online@1, then recorded traffic trained, published and hot-swapped online@%d live", ver)
}

// servedVersion returns the version of the online model /healthz reports.
func servedVersion(ops string) int {
	var hs struct {
		Model string `json:"model"`
	}
	if err := json.Unmarshal(get(ops, "/healthz"), &hs); err != nil {
		fail("parse /healthz: %v", err)
	}
	var ver int
	if _, err := fmt.Sscanf(hs.Model, "online@%d", &ver); err != nil {
		fail("/healthz model %q: want online@<version>", hs.Model)
	}
	return ver
}

// promValue extracts the value of the first sample whose series name (with
// or without labels) matches name on a Prometheus text page; ok reports
// whether the series was present.
func promValue(page, name string) (float64, bool) {
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // a longer metric name sharing the prefix
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &v); err == nil {
			return v, true
		}
	}
	return 0, false
}

// get fetches one HTTP endpoint and requires a 200.
func get(addr, path string) []byte {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		fail("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		fail("GET %s: %s: %s", path, resp.Status, body)
	}
	return body
}

// replicaPID looks a replica's process id up on the admin /fleet endpoint.
func replicaPID(admin, id string) int {
	var info struct {
		Replicas []struct {
			ID  string `json:"id"`
			PID int    `json:"pid"`
		} `json:"replicas"`
	}
	if err := json.Unmarshal(get(admin, "/fleet"), &info); err != nil {
		fail("parse /fleet: %v", err)
	}
	for _, r := range info.Replicas {
		if r.ID == id {
			return r.PID
		}
	}
	fail("replica %q not in /fleet", id)
	return 0
}
