// Command decima-smoke is the CI smoke check for the serving binary: it
// starts a real decima-server process, opens a scheduling session over TCP,
// drives a full simulated workload through it (at least -events scheduling
// events), closes the session, and asserts the server shuts down cleanly on
// SIGINT. Any failure exits non-zero.
//
// With -restart it instead exercises the self-healing session path at the
// process level: it runs one uninterrupted reference workload, then repeats
// the identical workload while SIGKILLing the server mid-session and
// starting a replacement on the same address. The client must ride out the
// crash (retry, redial, reopen from its snapshot) and produce exactly the
// reference schedule.
//
// With -fleet it exercises the sharded serving plane end to end: a
// decima-fleet router spawns three real replica processes, a session runs
// against the router while the replica hosting it is SIGKILLed at one third
// of the run and the next host is drained through the admin endpoint at two
// thirds; the healed schedule must be identical to a single-server
// reference, and the fleet /metrics exposition must show the migrations
// with exactly one TYPE line per metric name.
//
// With -chaos it exercises the overload-control plane under deterministic
// fault injection: the identical workload runs once uninterrupted and once
// against a server with a tiny admission bound (-max-inflight), background
// noise sessions saturating it, and the client's transport wrapped by
// internal/chaos (seeded latency + connection resets). The session must
// ride out both the injected transport faults and the typed overload sheds
// — jittered backoff, no reopen on shed — and produce the bitwise-identical
// reference schedule.
//
// With -online it exercises the closed learning loop end to end: a server
// with a temporary model registry and -online learns from recorded session
// traffic; the smoke drives recorded sessions until the ops /metrics surface
// shows at least one published-and-hot-swapped model version, then asserts
// /healthz carries the model identity and the shutdown is clean.
//
//	go build -o bin/decima-server ./cmd/decima-server
//	go run ./cmd/decima-smoke -bin bin/decima-server -events 100
//	go run ./cmd/decima-smoke -bin bin/decima-server -restart
//	go run ./cmd/decima-smoke -bin bin/decima-server -chaos
//	go run ./cmd/decima-smoke -bin bin/decima-server -online
//	go build -o bin/decima-fleet ./cmd/decima-fleet
//	go run ./cmd/decima-smoke -bin bin/decima-server -fleet-bin bin/decima-fleet -fleet
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/rpcsvc"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		bin       = flag.String("bin", "bin/decima-server", "path to the decima-server binary")
		events    = flag.Int("events", 100, "minimum number of scheduling events to drive")
		executors = flag.Int("executors", 8, "simulated cluster size")
		restart   = flag.Bool("restart", false, "kill and restart the server mid-session; assert the client self-heals with an identical schedule")
		chaosRun  = flag.Bool("chaos", false, "run the overload+fault-injection scenario: tiny admission bound, noise sessions, seeded transport chaos; assert the healed schedule matches the reference")
		fleetRun  = flag.Bool("fleet", false, "run the sharded-fleet scenario: router + 3 replica processes, SIGKILL one and drain another mid-session")
		onlineRun = flag.Bool("online", false, "run the online-learning scenario: recorded sessions feed an in-process trainer until a published model version is hot-swapped live")
		fleetBin  = flag.String("fleet-bin", "bin/decima-fleet", "path to the decima-fleet binary (with -fleet)")
		timeout   = flag.Duration("timeout", 2*time.Minute, "overall deadline")
	)
	flag.Parse()

	deadline := time.AfterFunc(*timeout, func() {
		log.Fatalf("smoke: deadline %s exceeded", *timeout)
	})
	defer deadline.Stop()

	if *restart {
		restartScenario(*bin, *executors)
		return
	}
	if *chaosRun {
		chaosScenario(*bin, *executors)
		return
	}
	if *fleetRun {
		fleetScenario(*bin, *fleetBin, *executors)
		return
	}
	if *onlineRun {
		onlineScenario(*bin, *executors)
		return
	}

	cmd, addr := launchServer(*bin, "127.0.0.1:0", *executors)
	defer cmd.Process.Kill() // no-op after a clean Wait

	cli, err := rpcsvc.Dial(addr)
	if err != nil {
		log.Fatalf("smoke: dial %s: %v", addr, err)
	}
	defer cli.Close()

	total := 0
	for round := int64(1); total < *events; round++ {
		var rpcErr error
		ss := &rpcsvc.SessionScheduler{Client: cli, Seed: round, OnError: func(e error) { rpcErr = e }}
		jobs := workload.Batch(rand.New(rand.NewSource(round)), 6)
		res := sim.New(sim.SparkDefaults(*executors), jobs, ss, rand.New(rand.NewSource(round))).Run()
		if rpcErr != nil {
			log.Fatalf("smoke: session RPC error: %v", rpcErr)
		}
		if res.Deadlock || res.Unfinished != 0 {
			log.Fatalf("smoke: run failed: unfinished=%d deadlock=%v", res.Unfinished, res.Deadlock)
		}
		if err := ss.Close(); err != nil {
			log.Fatalf("smoke: close session: %v", err)
		}
		total += res.Invocations
		fmt.Printf("smoke: round %d ok, %d/%d events, avg JCT %.1f s\n", round, total, *events, res.AvgJCT())
	}

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		log.Fatalf("smoke: signal server: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		log.Fatalf("smoke: server did not shut down cleanly: %v", err)
	}
	fmt.Printf("SMOKE OK: %d scheduling events served over a session, clean shutdown\n", total)
}

// launchServer starts a decima-server process on addr ("host:0" picks a
// port), waits for its "listening on" banner, keeps draining its output in
// the background, and returns the process and the bound address.
func launchServer(bin, addr string, executors int, extra ...string) (*exec.Cmd, string) {
	args := append([]string{"-addr", addr, "-executors", fmt.Sprint(executors)}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		log.Fatalf("smoke: stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		log.Fatalf("smoke: start server: %v", err)
	}

	// The server announces its bound address as the first line.
	sc := bufio.NewScanner(stdout)
	var bound string
	for sc.Scan() {
		line := sc.Text()
		fmt.Println("[server]", line)
		if i := strings.LastIndex(line, "listening on "); i >= 0 {
			bound = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if bound == "" {
		log.Fatal("smoke: server never announced its address")
	}
	// Keep draining server output in the background so it never blocks on a
	// full pipe, and so shutdown messages reach the CI log.
	go func() {
		for sc.Scan() {
			fmt.Println("[server]", sc.Text())
		}
	}()
	return cmd, bound
}

// fingerprint flattens the schedule-determining outcome of a run.
func fingerprint(r *sim.Result) string {
	return fmt.Sprintf("%v/%v/%v/%d/%d", r.AvgJCT(), r.Makespan, r.JobSeconds, r.Invocations, len(r.Completed))
}

// restartScenario runs the crash-mid-session check: the same seeded
// workload twice against the same server configuration, once uninterrupted
// and once with the server SIGKILLed at a mid-run scheduling event and a
// replacement started on the same address. Both runs must complete with
// identical schedules and the healed client must not be degraded.
func restartScenario(bin string, executors int) {
	const seed = 1
	cmd, addr := launchServer(bin, "127.0.0.1:0", executors)
	defer func() { cmd.Process.Kill() }()

	cli, err := rpcsvc.Dial(addr)
	if err != nil {
		log.Fatalf("smoke: dial %s: %v", addr, err)
	}
	defer cli.Close()

	run := func(wrap func(sim.Scheduler) sim.Scheduler) (*sim.Result, *rpcsvc.SessionScheduler, int) {
		errs := 0
		ss := &rpcsvc.SessionScheduler{
			Client: cli, Seed: seed,
			MaxRetries: 10, Backoff: 50 * time.Millisecond,
			OnError: func(error) { errs++ },
		}
		var s sim.Scheduler = ss
		if wrap != nil {
			s = wrap(s)
		}
		jobs := workload.Batch(rand.New(rand.NewSource(seed)), 6)
		res := sim.New(sim.SparkDefaults(executors), jobs, s, rand.New(rand.NewSource(seed))).Run()
		if res.Deadlock || res.Unfinished != 0 {
			log.Fatalf("smoke: run failed: unfinished=%d deadlock=%v", res.Unfinished, res.Deadlock)
		}
		return res, ss, errs
	}

	ref, refSS, _ := run(nil)
	if err := refSS.Close(); err != nil {
		log.Fatalf("smoke: close reference session: %v", err)
	}
	fmt.Printf("smoke: reference run ok, %d events\n", ref.Invocations)
	killAt := ref.Invocations / 2
	if killAt < 1 {
		log.Fatalf("smoke: reference run too short to interrupt (%d events)", ref.Invocations)
	}

	n := 0
	crash := func(inner sim.Scheduler) sim.Scheduler {
		return sim.SchedulerFunc(func(st *sim.State) *sim.Action {
			n++
			if n == killAt {
				fmt.Printf("smoke: SIGKILL server at event %d\n", n)
				if err := cmd.Process.Kill(); err != nil {
					log.Fatalf("smoke: kill server: %v", err)
				}
				cmd.Wait() // release the port before rebinding
				cmd, _ = launchServer(bin, addr, executors)
				fmt.Println("smoke: replacement server up on", addr)
			}
			return inner.Schedule(st)
		})
	}
	healed, healedSS, errs := run(crash)
	if errs == 0 {
		log.Fatal("smoke: crash was never observed by the session client")
	}
	if healedSS.Degraded() {
		log.Fatal("smoke: client fell back to degraded mode instead of healing")
	}
	if err := healedSS.Close(); err != nil {
		log.Fatalf("smoke: close healed session: %v", err)
	}
	if got, want := fingerprint(healed), fingerprint(ref); got != want {
		log.Fatalf("smoke: healed run diverged from reference:\n  healed    %s\n  reference %s", got, want)
	}

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		log.Fatalf("smoke: signal server: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		log.Fatalf("smoke: server did not shut down cleanly: %v", err)
	}
	fmt.Printf("SMOKE OK: server killed at event %d/%d, session healed with an identical schedule (%d transient errors ridden out)\n",
		killAt, ref.Invocations, errs)
}

// chaosScenario runs the overload + fault-injection check. The reference:
// one seeded workload against a plain server. The noisy run: the identical
// workload against a server with -max-inflight 2, while background noise
// sessions keep the admission gate saturated and the main client's
// transport is wrapped by a seeded chaos injector (added latency plus
// occasional connection resets). The client must absorb both weathers —
// typed overload sheds answered with jittered backoff on the intact
// session, transport faults with redial + reopen — and still produce the
// bitwise-identical schedule: sheds happen before the server mirror
// mutates, so a retried event decides exactly as an unimpeded one.
func chaosScenario(bin string, executors int) {
	const seed = 1

	// Reference: uninterrupted, no admission bound, clean transport.
	refCmd, refAddr := launchServer(bin, "127.0.0.1:0", executors)
	refCli, err := rpcsvc.Dial(refAddr)
	if err != nil {
		log.Fatalf("smoke: dial %s: %v", refAddr, err)
	}
	refSS := &rpcsvc.SessionScheduler{Client: refCli, Seed: seed}
	jobs := workload.Batch(rand.New(rand.NewSource(seed)), 6)
	ref := sim.New(sim.SparkDefaults(executors), jobs, refSS, rand.New(rand.NewSource(seed))).Run()
	if ref.Deadlock || ref.Unfinished != 0 {
		log.Fatalf("smoke: reference run failed: unfinished=%d deadlock=%v", ref.Unfinished, ref.Deadlock)
	}
	if err := refSS.Close(); err != nil {
		log.Fatalf("smoke: close reference session: %v", err)
	}
	refCli.Close()
	refCmd.Process.Signal(os.Interrupt)
	refCmd.Wait()
	fmt.Printf("smoke: reference run ok, %d events\n", ref.Invocations)

	// Noisy run: a saturated server behind an injected transport.
	cmd, addr := launchServer(bin, "127.0.0.1:0", executors, "-max-inflight", "2")
	defer cmd.Process.Kill()

	// Noise pumps: background sessions on clean transports, hammering the
	// two admission slots so the main session keeps getting shed. They run
	// the server's default (decima) policy — each pump event holds its slot
	// for a whole inference forward, which is what makes collisions with
	// the main session's events frequent rather than razor-thin.
	stop := make(chan struct{})
	pumps := 6
	pumpDone := make(chan struct{}, pumps)
	for p := 0; p < pumps; p++ {
		go func(p int) {
			defer func() { pumpDone <- struct{}{} }()
			cli, err := rpcsvc.Dial(addr)
			if err != nil {
				log.Fatalf("smoke: dial pump %d: %v", p, err)
			}
			defer cli.Close()
			for round := int64(1); ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				ss := &rpcsvc.SessionScheduler{
					Client: cli, Seed: int64(p)*1000 + round,
					MaxRetries: 50, Backoff: 2 * time.Millisecond,
				}
				pj := workload.Batch(rand.New(rand.NewSource(round)), 2)
				sim.New(sim.SparkDefaults(executors), pj, ss, rand.New(rand.NewSource(round))).Run()
				ss.Close()
			}
		}(p)
	}

	inj := chaos.New(chaos.Config{
		Seed:      seed,
		Latency:   2 * time.Millisecond,
		ResetProb: 0.01,
	})
	cli, err := rpcsvc.DialWith(addr, inj.Dialer())
	if err != nil {
		log.Fatalf("smoke: chaos dial %s: %v", addr, err)
	}
	defer cli.Close()

	errs := 0
	ss := &rpcsvc.SessionScheduler{
		Client: cli, Seed: seed,
		MaxRetries: 40, Backoff: 5 * time.Millisecond,
		MaxElapsed: 30 * time.Second,
		Deadline:   5 * time.Second,
		OnError:    func(error) { errs++ },
	}
	res := sim.New(sim.SparkDefaults(executors), workload.Batch(rand.New(rand.NewSource(seed)), 6), ss, rand.New(rand.NewSource(seed))).Run()
	close(stop)
	for p := 0; p < pumps; p++ {
		<-pumpDone
	}
	if res.Deadlock || res.Unfinished != 0 {
		log.Fatalf("smoke: chaos run failed: unfinished=%d deadlock=%v", res.Unfinished, res.Deadlock)
	}
	if ss.Degraded() {
		log.Fatal("smoke: client fell back to degraded mode instead of healing")
	}
	cs := ss.Stats()
	if errs == 0 || cs.Overloaded < 1 {
		log.Fatalf("smoke: weather never reached the client (errors=%d, stats %+v): overload sheds were expected", errs, cs)
	}
	if got, want := fingerprint(res), fingerprint(ref); got != want {
		log.Fatalf("smoke: chaos run diverged from reference:\n  chaos     %s\n  reference %s", got, want)
	}
	if err := ss.Close(); err != nil {
		log.Fatalf("smoke: close chaos session: %v", err)
	}

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		log.Fatalf("smoke: signal server: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		log.Fatalf("smoke: server did not shut down cleanly: %v", err)
	}
	fmt.Printf("SMOKE OK: chaos run healed to the reference schedule (%d errors ridden out: %d overload sheds, %d transient faults, %d reopens)\n",
		errs, cs.Overloaded, cs.Transient, cs.Reopens)
}

// launchOnlineServer starts a decima-server with a registry, online
// learning and an ops endpoint, waits for both the RPC and ops banners, and
// returns the process plus both addresses.
func launchOnlineServer(bin, regDir string, executors int) (*exec.Cmd, string, string) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-executors", fmt.Sprint(executors),
		"-registry", regDir,
		"-online",
		"-online-publish-every", "2",
		"-http", "127.0.0.1:0",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		log.Fatalf("smoke: stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		log.Fatalf("smoke: start server: %v", err)
	}
	sc := bufio.NewScanner(stdout)
	var rpcAddr, opsAddr string
	for (rpcAddr == "" || opsAddr == "") && sc.Scan() {
		line := sc.Text()
		fmt.Println("[server]", line)
		if i := strings.LastIndex(line, "listening on "); i >= 0 {
			rpcAddr = strings.TrimSpace(line[i+len("listening on "):])
		}
		if i := strings.LastIndex(line, "ops http on "); i >= 0 {
			opsAddr = strings.TrimSpace(line[i+len("ops http on "):])
		}
	}
	if rpcAddr == "" || opsAddr == "" {
		log.Fatal("smoke: server never announced its addresses")
	}
	go func() {
		for sc.Scan() {
			fmt.Println("[server]", sc.Text())
		}
	}()
	return cmd, rpcAddr, opsAddr
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

// onlineScenario drives the closed loop at process level: recorded sessions
// against an -online server with a temporary registry, until the trainer has
// published a version and hot-swapped the live sessions onto it (observed on
// the ops /metrics page), then asserts the model identity reached /healthz
// and the registry directory actually holds the published checkpoint.
func onlineScenario(bin string, executors int) {
	regDir, err := os.MkdirTemp("", "decima-smoke-registry-")
	if err != nil {
		log.Fatalf("smoke: registry tempdir: %v", err)
	}
	defer os.RemoveAll(regDir)

	cmd, addr, opsAddr := launchOnlineServer(bin, regDir, executors)
	defer cmd.Process.Kill()

	cli, err := rpcsvc.Dial(addr)
	if err != nil {
		log.Fatalf("smoke: dial %s: %v", addr, err)
	}
	defer cli.Close()

	metrics := func() string { return string(adminGET(opsAddr, "/metrics")) }

	// Each round is one recorded session: the episode reaches the trainer on
	// Close. The server publishes and swaps every 2 trained episodes, so a
	// handful of rounds must surface online_swaps_total >= 1.
	const maxRounds = 30
	swapped := false
	for round := int64(1); round <= maxRounds && !swapped; round++ {
		var rpcErr error
		ss := &rpcsvc.SessionScheduler{Client: cli, Seed: round, Record: true, OnError: func(e error) { rpcErr = e }}
		jobs := workload.Batch(rand.New(rand.NewSource(round)), 4)
		res := sim.New(sim.SparkDefaults(executors), jobs, ss, rand.New(rand.NewSource(round))).Run()
		if rpcErr != nil {
			log.Fatalf("smoke: session RPC error: %v", rpcErr)
		}
		if res.Deadlock || res.Unfinished != 0 {
			log.Fatalf("smoke: run failed: unfinished=%d deadlock=%v", res.Unfinished, res.Deadlock)
		}
		if err := ss.Close(); err != nil {
			log.Fatalf("smoke: close session: %v", err)
		}
		// Give the trainer a beat to consume the queue, then check for a swap.
		for wait := 0; wait < 40 && !swapped; wait++ {
			page := metrics()
			if v, ok := promValue(page, "online_swaps_total"); ok && v >= 1 {
				swapped = true
				if rec, ok := promValue(page, "decima_recording_opens_total"); !ok || rec < 1 {
					log.Fatalf("smoke: swap happened but decima_recording_opens_total=%g: recording was never on", rec)
				}
				if mv, ok := promValue(page, "decima_model_version"); !ok || mv < 1 {
					log.Fatalf("smoke: swap happened but decima_model_version=%g", mv)
				}
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		fmt.Printf("smoke: round %d ok, %d events, swapped=%v\n", round, res.Invocations, swapped)
	}
	if !swapped {
		log.Fatalf("smoke: no hot-swap after %d recorded sessions:\n%s", maxRounds, metrics())
	}

	var hs struct {
		Model string `json:"model"`
	}
	if err := json.Unmarshal(adminGET(opsAddr, "/healthz"), &hs); err != nil {
		log.Fatalf("smoke: parse /healthz: %v", err)
	}
	if !strings.HasPrefix(hs.Model, "online@") {
		log.Fatalf("smoke: /healthz model %q: want online@<version>", hs.Model)
	}
	if _, err := os.Stat(regDir + "/online/v1.ckpt"); err != nil {
		log.Fatalf("smoke: published checkpoint missing: %v", err)
	}

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		log.Fatalf("smoke: signal server: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		log.Fatalf("smoke: server did not shut down cleanly: %v", err)
	}
	fmt.Printf("SMOKE OK: online loop closed — recorded traffic trained, published and hot-swapped %s live\n", hs.Model)
}

// launchFleet starts a decima-fleet router that spawns three replica
// processes, waits for the router and admin banners, and returns the
// process plus the router RPC and admin HTTP addresses.
func launchFleet(fleetBin, serverBin string, executors int) (*exec.Cmd, string, string) {
	cmd := exec.Command(fleetBin,
		"-addr", "127.0.0.1:0",
		"-metrics-addr", "127.0.0.1:0",
		"-spawn", "3",
		"-server-bin", serverBin,
		"-executors", fmt.Sprint(executors),
		"-health-interval", "100ms",
		"-down-after", "1",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		log.Fatalf("smoke: stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		log.Fatalf("smoke: start fleet: %v", err)
	}

	sc := bufio.NewScanner(stdout)
	var rpcAddr, adminAddr string
	for (rpcAddr == "" || adminAddr == "") && sc.Scan() {
		line := sc.Text()
		fmt.Println("[fleet]", line)
		// The replica children's banners are echoed with a "[rN]" prefix and
		// also contain "listening on"; match the router's banners precisely.
		if i := strings.LastIndex(line, "fleet router listening on "); i >= 0 {
			rpcAddr = strings.TrimSpace(line[i+len("fleet router listening on "):])
		}
		if i := strings.LastIndex(line, "fleet admin http on "); i >= 0 {
			adminAddr = strings.TrimSpace(line[i+len("fleet admin http on "):])
		}
	}
	if rpcAddr == "" || adminAddr == "" {
		log.Fatal("smoke: fleet never announced its addresses")
	}
	go func() {
		for sc.Scan() {
			fmt.Println("[fleet]", sc.Text())
		}
	}()
	return cmd, rpcAddr, adminAddr
}

// adminGET fetches one fleet admin endpoint.
func adminGET(adminAddr, path string) []byte {
	resp, err := http.Get("http://" + adminAddr + path)
	if err != nil {
		log.Fatalf("smoke: GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("smoke: GET %s: %s: %s", path, resp.Status, body)
	}
	return body
}

// replicaPID looks a replica's process id up on the admin /fleet endpoint.
func replicaPID(adminAddr, id string) int {
	var info struct {
		Replicas []struct {
			ID  string `json:"id"`
			PID int    `json:"pid"`
		} `json:"replicas"`
	}
	if err := json.Unmarshal(adminGET(adminAddr, "/fleet"), &info); err != nil {
		log.Fatalf("smoke: parse /fleet: %v", err)
	}
	for _, r := range info.Replicas {
		if r.ID == id {
			return r.PID
		}
	}
	log.Fatalf("smoke: replica %q not in /fleet", id)
	return 0
}

// fleetScenario runs the sharded serving check: a single-server reference
// run, then the identical workload through a decima-fleet router with three
// spawned replicas — SIGKILLing the session's replica at one third of the
// run and draining its next host at two thirds. The healed schedule must be
// bitwise identical to the reference and the fleet metrics must record both
// migrations.
func fleetScenario(serverBin, fleetBin string, executors int) {
	const seed = 1

	// Reference: the same workload against one plain decima-server.
	refCmd, refAddr := launchServer(serverBin, "127.0.0.1:0", executors)
	refCli, err := rpcsvc.Dial(refAddr)
	if err != nil {
		log.Fatalf("smoke: dial %s: %v", refAddr, err)
	}
	refSS := &rpcsvc.SessionScheduler{Client: refCli, Seed: seed}
	jobs := workload.Batch(rand.New(rand.NewSource(seed)), 6)
	ref := sim.New(sim.SparkDefaults(executors), jobs, refSS, rand.New(rand.NewSource(seed))).Run()
	if ref.Deadlock || ref.Unfinished != 0 {
		log.Fatalf("smoke: reference run failed: unfinished=%d deadlock=%v", ref.Unfinished, ref.Deadlock)
	}
	if err := refSS.Close(); err != nil {
		log.Fatalf("smoke: close reference session: %v", err)
	}
	refCli.Close()
	refCmd.Process.Signal(os.Interrupt)
	refCmd.Wait()
	fmt.Printf("smoke: reference run ok, %d events\n", ref.Invocations)

	killAt, drainAt := ref.Invocations/3, 2*ref.Invocations/3
	if killAt < 1 || drainAt <= killAt {
		log.Fatalf("smoke: reference run too short to interrupt (%d events)", ref.Invocations)
	}

	fleetCmd, routerAddr, adminAddr := launchFleet(fleetBin, serverBin, executors)
	defer fleetCmd.Process.Kill()

	cli, err := rpcsvc.Dial(routerAddr)
	if err != nil {
		log.Fatalf("smoke: dial router %s: %v", routerAddr, err)
	}
	defer cli.Close()

	errs := 0
	ss := &rpcsvc.SessionScheduler{
		Client: cli, Seed: seed, Key: "smoke-fleet",
		MaxRetries: 10, Backoff: 50 * time.Millisecond,
		OnError: func(error) { errs++ },
	}
	var killed, drained string
	n := 0
	chaos := sim.SchedulerFunc(func(st *sim.State) *sim.Action {
		n++
		if n == killAt {
			killed = ss.Replica()
			pid := replicaPID(adminAddr, killed)
			fmt.Printf("smoke: SIGKILL replica %s (pid %d) at event %d\n", killed, pid, n)
			if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
				log.Fatalf("smoke: kill replica %s: %v", killed, err)
			}
		}
		if n == drainAt {
			drained = ss.Replica()
			if drained == "" || drained == killed {
				log.Fatalf("smoke: session on %q at drain point (killed %q): failover never happened", drained, killed)
			}
			fmt.Printf("smoke: draining replica %s at event %d\n", drained, n)
			fmt.Printf("smoke: %s\n", strings.TrimSpace(string(adminGET(adminAddr, "/drain?replica="+drained))))
		}
		return ss.Schedule(st)
	})
	res := sim.New(sim.SparkDefaults(executors), workload.Batch(rand.New(rand.NewSource(seed)), 6), chaos, rand.New(rand.NewSource(seed))).Run()
	if res.Deadlock || res.Unfinished != 0 {
		log.Fatalf("smoke: fleet run failed: unfinished=%d deadlock=%v", res.Unfinished, res.Deadlock)
	}
	if errs == 0 {
		log.Fatal("smoke: neither kill nor drain was observed by the session client")
	}
	if ss.Degraded() {
		log.Fatal("smoke: client fell back to degraded mode instead of healing")
	}
	if final := ss.Replica(); final == killed || final == drained {
		log.Fatalf("smoke: session ended on %q (killed %q, drained %q)", final, killed, drained)
	}
	cs := ss.Stats()
	if cs.Evicted < 1 || cs.WrongShard < 1 {
		log.Fatalf("smoke: recovery counters %+v: want Evicted>=1 (kill) and WrongShard>=1 (drain)", cs)
	}
	if got, want := fingerprint(res), fingerprint(ref); got != want {
		log.Fatalf("smoke: fleet run diverged from reference:\n  fleet     %s\n  reference %s", got, want)
	}

	prom := string(adminGET(adminAddr, "/metrics"))
	for _, want := range []string{
		`fleet_replica_sessions{replica="`,
		`fleet_migrations_total{reason="drain"} 1`,
		`fleet_migrations_total{reason="failover"} 1`,
		"fleet_replica_events_total",
		"fleet_replica_decide_latency_seconds_bucket",
	} {
		if !strings.Contains(prom, want) {
			log.Fatalf("smoke: fleet /metrics missing %q:\n%s", want, prom)
		}
	}
	// Three replicas feed every per-replica family; each keeps one TYPE line.
	typed := map[string]int{}
	for _, line := range strings.Split(prom, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			if typed[f[2]]++; typed[f[2]] > 1 {
				log.Fatalf("smoke: fleet /metrics repeats the TYPE line of %s:\n%s", f[2], prom)
			}
		}
	}
	if err := ss.Close(); err != nil {
		log.Fatalf("smoke: close fleet session: %v", err)
	}

	// SIGTERM = fleet-wide drain; router and surviving children must exit.
	if err := fleetCmd.Process.Signal(syscall.SIGTERM); err != nil {
		log.Fatalf("smoke: signal fleet: %v", err)
	}
	if err := fleetCmd.Wait(); err != nil {
		log.Fatalf("smoke: fleet did not shut down cleanly: %v", err)
	}
	fmt.Printf("SMOKE OK: fleet healed SIGKILL of %s at event %d and drain of %s at event %d with an identical schedule (%d errors ridden out)\n",
		killed, killAt, drained, drainAt, errs)
}
