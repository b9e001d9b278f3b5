// Command decima-fleet runs a session-sharding router in front of a set of
// decima-server replicas (see docs/FLEET.md). Clients speak the ordinary
// rpcsvc session protocol to the router's address; sessions are
// consistent-hashed onto replicas, survive replica loss and drains through
// the client's snapshot-reopen path, and the whole fleet is observable on
// the admin HTTP endpoint (/metrics, /healthz, /fleet, /drain).
//
// Replicas either already exist (-replicas attaches them) or are spawned as
// child decima-server processes (-spawn). SIGTERM drains the fleet: every
// replica's sessions migrate, children receive SIGTERM (their own graceful
// drain), and the router exits. SIGINT shuts down immediately.
//
// Examples:
//
//	decima-fleet -spawn 3 -server-bin bin/decima-server -executors 8
//	decima-fleet -replicas 10.0.0.1:7764@10.0.0.1:9101,10.0.0.2:7764
//	decima-fleet -drain r2 -metrics-addr 127.0.0.1:9100
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/fleet"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7765", "router RPC listen address (clients dial this)")
		metricsAddr = flag.String("metrics-addr", "127.0.0.1:9100", "admin HTTP address (/metrics, /healthz, /fleet, /drain)")
		replicas    = flag.String("replicas", "", "comma-separated replicas to attach, each addr[@opsaddr]")
		spawn       = flag.Int("spawn", 0, "number of decima-server child replicas to spawn")
		serverBin   = flag.String("server-bin", "decima-server", "decima-server binary for -spawn")
		executors   = flag.Int("executors", 25, "passed to spawned replicas")
		schedName   = flag.String("scheduler", "decima", "passed to spawned replicas")
		seed        = flag.Int64("seed", 1, "passed to spawned replicas")
		healthIvl   = flag.Duration("health-interval", fleet.DefaultHealthInterval, "active health probe period (<0 disables)")
		downAfter   = flag.Int("down-after", fleet.DefaultDownAfter, "consecutive failures before a replica is down")
		drainID     = flag.String("drain", "", "admin mode: drain this replica id via the running router's -metrics-addr, then exit")
	)
	flag.Parse()
	logger := slog.Default()

	if *drainID != "" {
		drainRemote(*metricsAddr, *drainID)
		return
	}

	rt := fleet.New(fleet.Config{
		HealthInterval: *healthIvl,
		DownAfter:      *downAfter,
		Logger:         logger,
	})

	// Spawned children are decima-server replicas on ephemeral ports with
	// ops endpoints; their banners announce the bound addresses.
	var children []*exec.Cmd
	killChildren := func(sig os.Signal) {
		for _, c := range children {
			if c.Process != nil {
				c.Process.Signal(sig)
			}
		}
		for _, c := range children {
			c.Wait()
		}
	}
	for i := 0; i < *spawn; i++ {
		id := fmt.Sprintf("r%d", i+1)
		cmd, rpcAddr, opsAddr := spawnReplica(*serverBin, id, *executors, *schedName, *seed)
		children = append(children, cmd)
		if err := rt.AddReplica(id, rpcAddr, opsAddr, cmd.Process.Pid); err != nil {
			killChildren(os.Kill)
			log.Fatalf("fleet: %v", err)
		}
	}
	for _, spec := range strings.Split(*replicas, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		rpcAddr, opsAddr, _ := strings.Cut(spec, "@")
		if err := rt.AddReplica(rpcAddr, rpcAddr, opsAddr, 0); err != nil {
			killChildren(os.Kill)
			log.Fatalf("fleet: %v", err)
		}
	}
	if len(rt.Info().Replicas) == 0 {
		log.Fatal("fleet: no replicas (use -spawn and/or -replicas)")
	}
	rt.Start()

	srv, err := fleet.ListenAndServe(*addr, rt)
	if err != nil {
		killChildren(os.Kill)
		log.Fatalf("fleet: listen: %v", err)
	}
	fmt.Printf("decima fleet router listening on %s\n", srv.Addr())

	adminLis, err := net.Listen("tcp", *metricsAddr)
	if err != nil {
		killChildren(os.Kill)
		log.Fatalf("fleet: admin listen: %v", err)
	}
	admin := &http.Server{Handler: fleet.NewAdminHandler(rt)}
	go admin.Serve(adminLis)
	fmt.Printf("fleet admin http on %s\n", adminLis.Addr())
	for _, ri := range rt.Info().Replicas {
		fmt.Printf("fleet replica %s at %s (ops %s, pid %d)\n", ri.ID, ri.Addr, ri.OpsAddr, ri.PID)
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	sig := <-ch
	if sig == syscall.SIGTERM {
		// Fleet-wide drain: migrate every replica's sessions (their next
		// event answers wrong-shard — clients pointed at a surviving fleet
		// re-route; here everything is retiring), then let children drain.
		logger.Info("fleet: draining on SIGTERM")
		for _, ri := range rt.Info().Replicas {
			rt.DrainReplica(ri.ID)
		}
		killChildren(syscall.SIGTERM)
	} else {
		killChildren(os.Interrupt)
	}
	fmt.Println("fleet shutting down")
	admin.Close()
	srv.Close()
	rt.Stop()
}

// spawnReplica starts one decima-server child with an ops endpoint and
// parses its banners for the bound RPC and ops addresses.
func spawnReplica(bin, id string, executors int, schedName string, seed int64) (*exec.Cmd, string, string) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-http", "127.0.0.1:0",
		"-replica-id", id,
		"-executors", fmt.Sprint(executors),
		"-scheduler", schedName,
		"-seed", fmt.Sprint(seed),
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		log.Fatalf("fleet: stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		log.Fatalf("fleet: start replica %s: %v", id, err)
	}

	sc := bufio.NewScanner(stdout)
	var rpcAddr, opsAddr string
	// Test the flags before Scan: Scan blocks for a next line, and the ops
	// banner is the replica's last startup line.
	for (rpcAddr == "" || opsAddr == "") && sc.Scan() {
		line := sc.Text()
		fmt.Printf("[%s] %s\n", id, line)
		if i := strings.LastIndex(line, "listening on "); i >= 0 {
			rpcAddr = strings.TrimSpace(line[i+len("listening on "):])
		}
		if i := strings.LastIndex(line, "ops http on "); i >= 0 {
			opsAddr = strings.TrimSpace(line[i+len("ops http on "):])
		}
	}
	if rpcAddr == "" || opsAddr == "" {
		log.Fatalf("fleet: replica %s never announced its addresses", id)
	}
	go func() {
		for sc.Scan() {
			fmt.Printf("[%s] %s\n", id, sc.Text())
		}
	}()
	return cmd, rpcAddr, opsAddr
}

// drainRemote asks a running router's admin endpoint to drain one replica.
func drainRemote(adminAddr, id string) {
	resp, err := http.Get("http://" + adminAddr + "/drain?replica=" + url.QueryEscape(id))
	if err != nil {
		log.Fatalf("fleet: drain request: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("fleet: drain %s: %s: %s", id, resp.Status, strings.TrimSpace(string(body)))
	}
	fmt.Printf("fleet: drained %s: %s\n", id, strings.TrimSpace(string(body)))
}
