// Command decima-bench regenerates the paper's tables and figures.
//
// Comparison figures run the policies named by -scheduler (comma-separated
// internal/scheduler registry names, "decima" included); the default is
// each figure's paper set. Selecting only heuristics skips Decima training
// entirely, making any figure a seconds-fast heuristic head-to-head.
//
// -failures switches to the robustness matrix (the "robust" experiment):
// every selected scheduler scored under the named failure regimes (see
// internal/workload.Regimes; "all" runs every regime), with the
// machine-readable result written to -json (BENCH_robustness.json by
// default — the artifact CI uploads). -short shrinks whichever scale is
// selected so the matrix fits in a CI smoke job.
//
// Examples:
//
//	decima-bench -exp fig9a -scale small
//	decima-bench -exp fig9a -scheduler fifo,fair,decima
//	decima-bench -exp all -scale tiny
//	decima-bench -failures lossy -scheduler decima,fifo -short
//	decima-bench -failures all
//	decima-bench -list
//	decima-bench -list-schedulers
//	decima-bench -list-failures
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

func main() {
	var (
		id         = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		scale      = flag.String("scale", "tiny", "scale: tiny | small | paper")
		seed       = flag.Int64("seed", 1, "random seed")
		workers    = flag.Int("workers", 0, "rollout workers for training runs (0 = one per CPU)")
		scheds     = flag.String("scheduler", "", "comma-separated registry schedulers for comparison figures (empty = each figure's default set)")
		failures   = flag.String("failures", "", "comma-separated failure regimes ('all' = every regime); runs the robustness matrix and writes -json")
		short      = flag.Bool("short", false, "shrink the selected scale for smoke runs (CI robustness job)")
		jsonPath   = flag.String("json", "BENCH_robustness.json", "output path for the robustness matrix artifact (with -failures)")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		listScheds = flag.Bool("list-schedulers", false, "list registered scheduler names and exit")
		listFails  = flag.Bool("list-failures", false, "list failure regime names and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(exp.IDs(), "\n"))
		return
	}
	if *listScheds {
		fmt.Println(strings.Join(scheduler.Names(), "\n"))
		return
	}
	if *listFails {
		fmt.Println(strings.Join(workload.RegimeNames(), "\n"))
		return
	}
	var sc exp.Scale
	switch *scale {
	case "tiny":
		sc = exp.ScaleTiny
	case "small":
		sc = exp.ScaleSmall
	case "paper":
		sc = exp.ScalePaper
	default:
		log.Fatalf("unknown scale %q", *scale)
	}
	sc.Seed = *seed
	sc.Workers = *workers
	if *short {
		// Shrink whatever scale was selected to smoke-run size: one short
		// workload, minimal training. Comparisons stay meaningful (same
		// code paths, same regimes), only the sample sizes drop.
		sc.Runs = minI(sc.Runs, 2)
		sc.ContinuousJobs = minI(sc.ContinuousJobs, 8)
		sc.BatchJobs = minI(sc.BatchJobs, 6)
		sc.TrainIters = minI(sc.TrainIters, 4)
		sc.EpisodesPerIter = minI(sc.EpisodesPerIter, 2)
	}
	if *scheds != "" {
		for _, name := range strings.Split(*scheds, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			// Validate up front so a typo fails fast instead of panicking
			// mid-figure ("decima" is built by the harness, not the registry).
			if name != "decima" {
				if _, err := scheduler.New(name, scheduler.Options{Executors: sc.Executors}); err != nil {
					log.Fatal(err)
				}
			}
			sc.Schedulers = append(sc.Schedulers, name)
		}
	}

	if *failures != "" {
		if *failures != "all" {
			for _, name := range strings.Split(*failures, ",") {
				name = strings.TrimSpace(name)
				if name == "" {
					continue
				}
				if _, err := workload.Regime(name); err != nil {
					log.Fatal(err)
				}
				sc.Failures = append(sc.Failures, name)
			}
		}
		tbl, doc := exp.RobustMatrix(sc)
		fmt.Println(tbl)
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
		return
	}

	ids := []string{*id}
	if *id == "all" {
		ids = exp.IDs()
	}
	for _, x := range ids {
		tbl, err := exp.Run(x, sc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tbl)
	}
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}
