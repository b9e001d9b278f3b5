// Command decima-train trains a Decima scheduling agent in the cluster
// simulator and writes the model (and optionally a learning-curve CSV) to
// disk.
//
// Examples:
//
//	decima-train -executors 25 -iters 500 -out model.gob
//	decima-train -workload trace -objective makespan -curve curve.csv
//	decima-train -iters 200 -eval-against fifo,fair,opt-wfair
//	decima-train -iters 200 -registry /var/lib/decima -publish prod
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/nn"
	"repro/internal/registry"
	"repro/internal/rl"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		executors = flag.Int("executors", 25, "number of executors in the simulated cluster")
		iters     = flag.Int("iters", 300, "training iterations")
		episodes  = flag.Int("episodes", 6, "episodes per iteration (same arrival sequence)")
		jobs      = flag.Int("jobs", 10, "jobs per training episode")
		wl        = flag.String("workload", "tpch", "training workload: tpch | trace")
		load      = flag.Float64("load", 0.85, "target cluster load for continuous arrivals (0 = batched)")
		objective = flag.String("objective", "jct", "objective: jct | makespan")
		workers   = flag.Int("workers", 0, "rollout workers (0 = one per CPU); results are identical for any value")
		lr        = flag.Float64("lr", 3e-3, "Adam learning rate")
		seed      = flag.Int64("seed", 1, "random seed")
		out       = flag.String("out", "decima-model.gob", "model output path")
		curve     = flag.String("curve", "", "optional learning-curve CSV output path")
		logEvery  = flag.Int("log-every", 10, "print stats every N iterations")
		evalVs    = flag.String("eval-against", "", "after training, evaluate the model head-to-head against these comma-separated registry schedulers on held-out sequences")
		matmulWk  = flag.Int("matmul-workers", 0, "matmul kernel workers for tall stacked forwards (0 = one per CPU; results identical for any value)")
		regDir    = flag.String("registry", "", "model registry directory; with -publish the trained model is published there as a new version")
		publish   = flag.String("publish", "", "registry model name to publish the trained model under (requires -registry)")
	)
	flag.Parse()
	nn.SetMatMulWorkers(*matmulWk)

	acfg := core.DefaultConfig(*executors)
	agent := core.New(acfg, rand.New(rand.NewSource(*seed)))

	tcfg := rl.DefaultConfig()
	tcfg.EpisodesPerIter = *episodes
	tcfg.Workers = *workers
	tcfg.LR = *lr
	if *objective == "makespan" {
		tcfg.Objective = rl.ObjMakespan
	}

	var src rl.JobSource
	switch *wl {
	case "tpch":
		iat := 0.0
		if *load > 0 {
			iat = workload.IATForLoad(*load, *executors)
		}
		src = func(rng *rand.Rand) []*dag.Job {
			if iat > 0 {
				return workload.Poisson(rng, *jobs, iat)
			}
			return workload.Batch(rng, *jobs)
		}
	case "trace":
		src = func(rng *rand.Rand) []*dag.Job {
			return workload.IndustrialTrace(rng, workload.IndustrialTraceConfig{
				NumJobs: *jobs, MeanIAT: 20, MaxStages: 50,
			})
		}
	default:
		log.Fatalf("unknown workload %q", *wl)
	}

	simCfg := sim.SparkDefaults(*executors)
	tr := rl.NewTrainer(agent, tcfg, rand.New(rand.NewSource(*seed+1)))

	var curveRows [][]string
	stats := tr.Train(*iters, src, simCfg, func(st rl.IterStats) {
		curveRows = append(curveRows, []string{
			strconv.Itoa(st.Iter),
			fmt.Sprintf("%.3f", st.MeanReturn),
			fmt.Sprintf("%.3f", st.MeanJCT),
			fmt.Sprintf("%.1f", st.MeanSteps),
			fmt.Sprintf("%.3f", st.Entropy),
		})
		if st.Iter%*logEvery == 0 {
			fmt.Printf("iter %4d  return %10.1f  jct %8.1f  steps %5.0f  entropy %.2f\n",
				st.Iter, st.MeanReturn, st.MeanJCT, st.MeanSteps, st.Entropy)
		}
	})
	_ = stats

	if err := agent.Save(*out); err != nil {
		log.Fatalf("save model: %v", err)
	}
	fmt.Printf("model written to %s\n", *out)

	if *publish != "" {
		if *regDir == "" {
			log.Fatal("-publish requires -registry")
		}
		reg, err := registry.Open(*regDir)
		if err != nil {
			log.Fatalf("open registry: %v", err)
		}
		note := fmt.Sprintf("decima-train: %d iters, workload %s, seed %d", *iters, *wl, *seed)
		ver, err := reg.Publish(*publish, agent.Params(), note)
		if err != nil {
			log.Fatalf("publish model: %v", err)
		}
		fmt.Printf("published %s@%d to %s\n", *publish, ver, *regDir)
	}

	if *evalVs != "" {
		// Held-out evaluation sequences (not seen during training).
		var seqs [][]*dag.Job
		for i := 0; i < 5; i++ {
			seqs = append(seqs, src(rand.New(rand.NewSource(*seed+1000+int64(i)))))
		}
		jct, ms := rl.Evaluate(agent, seqs, simCfg, *seed)
		fmt.Printf("\n%-16s %12s %12s\n", "scheduler", "avg JCT [s]", "makespan [s]")
		fmt.Printf("%-16s %12.1f %12.1f\n", "decima (trained)", jct, ms)
		for _, name := range strings.Split(*evalVs, ",") {
			name = strings.TrimSpace(name)
			if name == "" || name == "decima" {
				continue
			}
			mk := func() sim.Scheduler {
				s, err := scheduler.New(name, scheduler.Options{Executors: *executors, Seed: *seed})
				if err != nil {
					log.Fatal(err)
				}
				return scheduler.Sim(s)
			}
			jct, ms := rl.EvaluateScheduler(mk, seqs, simCfg, *seed)
			fmt.Printf("%-16s %12.1f %12.1f\n", name, jct, ms)
		}
	}

	if *curve != "" {
		f, err := os.Create(*curve)
		if err != nil {
			log.Fatalf("create curve file: %v", err)
		}
		w := csv.NewWriter(f)
		_ = w.Write([]string{"iter", "mean_return", "mean_jct", "mean_steps", "entropy"})
		_ = w.WriteAll(curveRows)
		w.Flush()
		if err := f.Close(); err != nil {
			log.Fatalf("close curve file: %v", err)
		}
		fmt.Printf("learning curve written to %s\n", *curve)
	}
}
