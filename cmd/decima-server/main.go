// Command decima-server runs a scheduling service over TCP (the §6
// integration surface). A cluster — or the driver in examples/rpc — opens
// a stateful session (Open/Event/Close: incremental event deltas,
// server-side state, embedding cache warm across events) and the service
// replies with ⟨stage, parallelism limit(, class)⟩ per scheduling event.
// The stateless one-shot protocol of earlier releases is gone; its callers
// get net/rpc's "can't find method" answer (docs/PROTOCOL.md).
//
// Any policy from the scheduler registry can be served; sessions may also
// select a policy per OpenSession call. Every decima session is a runner of
// one base agent: it reads the base's model, shared by pointer and never
// written, and owns its embedding cache and RNG, so sessions decide
// concurrently with and independently of each other.
//
// As a fleet replica (`-replica-id`, `-http`; see docs/FLEET.md) the server
// announces its identity in Open replies and exposes /healthz and /metrics
// beside the RPC listener. SIGTERM drains gracefully: new sessions are
// refused, /healthz flips to "draining" (telling a fleet router to migrate
// the replica's sessions away), and the process exits once its sessions are
// gone or -drain-timeout elapses. SIGINT still shuts down immediately.
//
// With `-registry` the `-model` flag names a registry checkpoint
// (`name` or `name@version`, see docs/ONLINE.md) instead of a weights file,
// and `-online` closes the training loop in-process: sessions opened with
// recording stream their finished trajectories to a background trainer,
// which periodically publishes a new registry version and hot-swaps it in —
// every live session adopts it at its next decision, and none is dropped.
//
// Example:
//
//	decima-server -addr 127.0.0.1:7764 -executors 25 -model model.gob
//	decima-server -scheduler fifo
//	decima-server -replica-id r1 -http 127.0.0.1:9101
//	decima-server -registry /var/lib/decima -model prod@3
//	decima-server -registry /var/lib/decima -online -online-name prod
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/online"
	"repro/internal/registry"
	"repro/internal/rpcsvc"
	"repro/internal/scheduler"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7764", "listen address")
		schedName    = flag.String("scheduler", "decima", "default policy served to sessions that do not name one ("+strings.Join(scheduler.Names(), "|")+")")
		executors    = flag.Int("executors", 25, "executor count the decima model was built for")
		model        = flag.String("model", "", "optional trained decima model: a weights file, or a registry ref (name or name@version) when -registry is set")
		regDir       = flag.String("registry", "", "model registry directory; makes -model a registry ref and enables -online")
		onlineFlag   = flag.Bool("online", false, "learn online from recorded session traffic and hot-swap published versions live (requires -registry)")
		onlineName   = flag.String("online-name", "online", "registry model name -online publishes under")
		publishEvery = flag.Int("online-publish-every", 8, "publish and hot-swap after this many trained episodes")
		recordMax    = flag.Int("record-max-steps", rpcsvc.DefaultRecordMaxSteps, "per-session trajectory ring capacity for recorded sessions")
		sampled      = flag.Bool("sampled", false, "sample actions instead of greedy argmax")
		seed         = flag.Int64("seed", 1, "random seed for schedulers (per-session seeds from OpenSession take precedence)")
		maxSessions  = flag.Int("max-sessions", rpcsvc.DefaultMaxSessions, "bound on concurrent sessions (LRU eviction beyond it; <0 unbounded)")
		idleTimeout  = flag.Duration("idle-timeout", rpcsvc.DefaultIdleTimeout, "evict sessions idle for this long (<0 never)")
		matmulWk     = flag.Int("matmul-workers", 0, "matmul kernel workers for tall forwards such as the -online trainer's replay (0 = one per CPU; results identical for any value)")
		replicaID    = flag.String("replica-id", "", "fleet replica identity announced in Open replies and metrics (empty for standalone)")
		httpAddr     = flag.String("http", "", "ops HTTP address serving /healthz and /metrics (empty disables)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max wait for sessions to leave after SIGTERM before exiting anyway")
		maxInflight  = flag.Int("max-inflight", 0, "admission bound on in-flight events; beyond it requests are shed with the typed overloaded error (0 = unbounded)")
	)
	flag.Parse()
	nn.SetMatMulWorkers(*matmulWk)

	// The decima agent is built (and its model loaded) once; sessions get
	// runners of it, which share its model and own their mutable state. Each
	// runner keeps the incremental embedding cache ON: the session protocol
	// keeps the server-side sim.JobState mirrors alive across events, so the
	// pointer+Version-keyed cache hits in serving too. The model is loaded
	// here, before any session exists; later models are new Models installed
	// whole, never written into this one.
	base := core.New(core.DefaultConfig(*executors), rand.New(rand.NewSource(*seed)))
	var reg *registry.Registry
	modelName, modelVersion := "", 0
	if *regDir != "" {
		var err error
		if reg, err = registry.Open(*regDir); err != nil {
			log.Fatalf("open registry: %v", err)
		}
	}
	switch {
	case *model != "" && reg != nil:
		ref, err := registry.ParseRef(*model)
		if err != nil {
			log.Fatalf("parse model ref: %v", err)
		}
		ck, err := reg.Load(ref)
		if err != nil {
			log.Fatalf("load model %q from registry: %v", *model, err)
		}
		if err := ck.LoadInto(base.Params()); err != nil {
			log.Fatalf("install model %q: %v", *model, err)
		}
		modelName, modelVersion = ck.Name, ck.Version
	case *model != "":
		if err := base.Load(*model); err != nil {
			log.Fatalf("load model: %v", err)
		}
	}
	if *onlineFlag && reg == nil {
		log.Fatal("-online requires -registry")
	}

	cfg := rpcsvc.SessionConfig{
		Default:     *schedName,
		MaxSessions: *maxSessions,
		IdleTimeout: *idleTimeout,
		MaxInflight: *maxInflight,
		ReplicaID:   *replicaID,
		New: func(name string, sessSeed int64) (scheduler.Scheduler, error) {
			if sessSeed == 0 {
				sessSeed = *seed
			}
			return scheduler.New(name, scheduler.Options{
				Executors: *executors,
				Seed:      sessSeed,
				Sampled:   *sampled,
				Agent:     base, // used by "decima" only: serve a runner
			})
		},
	}

	var trainer *online.Trainer
	if *onlineFlag {
		trainer = online.New(base, online.Config{})
		cfg.RecordSink = trainer.Submit
		cfg.RecordMaxSteps = *recordMax
	}

	srv, err := rpcsvc.ListenAndServeSessions(*addr, cfg)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	if modelName != "" {
		srv.Service().SetModel(modelName, modelVersion)
	}
	fmt.Printf("decima scheduling service listening on %s\n", srv.Addr())
	fmt.Printf("default scheduler %q, max %d sessions, idle timeout %s\n", *schedName, *maxSessions, *idleTimeout)

	logger := slog.Default().With("replica", *replicaID)

	if trainer != nil {
		// The online loop: drain finished episodes into gradient updates;
		// every publishEvery episodes publish a registry version, reload it
		// into a new model, and install that as the served model. The reload
		// (rather than sharing the still-training agent's tensors) means
		// sessions serve exactly the checksummed bytes the registry holds.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			trained := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok := trainer.TrainOnce(); !ok {
					select {
					case <-stop:
						return
					case <-time.After(20 * time.Millisecond):
					}
					continue
				}
				trained++
				if trained%*publishEvery != 0 {
					continue
				}
				ver, err := trainer.Publish(reg, *onlineName, "online update")
				if err != nil {
					logger.Error("online publish failed", "err", err)
					continue
				}
				ck, err := reg.Load(registry.Ref{Name: *onlineName, Version: ver})
				if err != nil {
					logger.Error("online reload failed", "err", err)
					continue
				}
				m := core.NewModel(base.Cfg, rand.New(rand.NewSource(*seed)))
				if err := ck.LoadInto(m.Params()); err != nil {
					logger.Error("online install failed", "err", err)
					continue
				}
				srv.Service().Install(base, m, ck.Name, ck.Version)
				logger.Info("hot-swapped model", "model", fmt.Sprintf("%s@%d", ck.Name, ck.Version), "sessions", srv.Sessions())
			}
		}()
		fmt.Printf("online learning on: publishing %q every %d episodes\n", *onlineName, *publishEvery)
	}

	if *httpAddr != "" {
		lis, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("ops listen: %v", err)
		}
		var extras []func(w io.Writer)
		if trainer != nil {
			extras = append(extras, trainer.WriteProm)
		}
		ops := &http.Server{Handler: rpcsvc.NewOpsHandler(srv.Service(), extras...)}
		go ops.Serve(lis)
		defer ops.Close()
		// NOTE: this banner must not contain "listening on " — process
		// supervisors (decima-smoke, decima-fleet) parse that substring to
		// find the RPC address.
		fmt.Printf("ops http on %s\n", lis.Addr())
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	sig := <-ch
	if sig == syscall.SIGTERM {
		// Graceful drain: refuse new sessions, keep serving the live ones
		// so a fleet router can migrate them, and leave once they are gone.
		srv.Service().SetDraining(true)
		logger.Info("draining on SIGTERM", "sessions", srv.Sessions(), "timeout", *drainTimeout)
		deadline := time.Now().Add(*drainTimeout)
		for srv.Sessions() > 0 && time.Now().Before(deadline) {
			select {
			case <-ch: // second signal: stop waiting
				logger.Info("drain interrupted by second signal")
				deadline = time.Time{}
			case <-time.After(50 * time.Millisecond):
			}
		}
		logger.Info("drain complete", "sessions", srv.Sessions())
	}
	fmt.Println("shutting down")
	if err := srv.Close(); err != nil {
		log.Fatalf("close: %v", err)
	}
}
