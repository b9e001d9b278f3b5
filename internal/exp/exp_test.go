package exp

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/rl"
	"repro/internal/sim"
)

// microScale keeps every experiment's runtime in the low seconds.
var microScale = Scale{
	Executors: 4, BatchJobs: 3, ContinuousJobs: 6, Runs: 2,
	TrainIters: 2, EpisodesPerIter: 2, Seed: 1,
}

// slowExperiments lists the experiment ids that dominate the registry
// sweep's runtime (training-heavy or search-heavy); they are skipped under
// -short so the race-enabled CI job stays fast while the full sweep still
// runs in the plain test job.
var slowExperiments = map[string]bool{
	"fig3": true, "fig14": true, "fig15a": true, "fig22": true,
}

// goldenTables holds the SHA-256 of every table rendered at microScale, so a
// change that moves any number of any figure fails here; one that means to
// re-captures the digest. Fig. 15b is absent because its delay row is wall
// clock. Floating-point contraction differs across architectures, so the
// digests hold on amd64 only.
var goldenTables = map[string]string{
	"fig10":  "b7792f2c87fd87124fc0d5e227dff1c0e5827b526d9e6982648d69af3505742e",
	"fig11a": "d0d5702cd92f21772e502bffe0bc21707e74f6108a9f22379e99c38743cde9cd",
	"fig11b": "ea20cfb58856fe9476b0170a9e585293c3108dbcc0fb22618cd924a0db84ab4b",
	"fig12":  "c6e0978507d460778673cd3b16b31cec70eeb982e96ab9a8128fc19bb1257f7f",
	"fig13":  "561cc468b1c8db59161b80a0f5a0388c48f1ffb9919907a8df393a0e88cd06dd",
	"fig14":  "39d6ca2e7c25f45048fb563f47f693f8e9771a5030126dcfe4b6345a09085673",
	"fig15a": "edd6e4731c1fc67a932f946d99d1044ea71b04a499c709b5598a8654c65cdc78",
	"fig16":  "a665424425f3f62906aebe83b110fc624b761b3b1714d8ab1032cd6023e6042f",
	"fig18":  "faf3a24378daea08818aa65e668ad5e2072dbbccbee48a2d40931087df60b0be",
	"fig19":  "c508a0706c39c42b3ee0ec3cc4e9cd97f7d31c08e4355171cb2d5ede3eb5551a",
	"fig2":   "f121bcd262744c478f7cbae24362282cebf6f898b404388705584437ce412d27",
	"fig20":  "f86eb7ed36f2f9d669aa0e3986a794904553db4222d9f7758a4eb505cc4ad0b0",
	"fig21":  "3ba0011ed26a46eb62dc6ec1b0fb4c6f81df968c2b8f30f538b56c43fff02fee",
	"fig22":  "3f7374c284534e2ce1e744d705eb04868a1bc7d8085f28f8fa0e6f30eb3b8209",
	"fig23":  "bffe5a2eb61ce75e6aa17a7f0bc9f25bf6706a91f8ba50113dbc4ff5035a6f22",
	"fig3":   "0b0f7760a1d5a8b660d05ff6add9c314914e03c684fbeacdd16872324bca9602",
	"fig9a":  "abd48d034286593affc26cc34659a5ccd29a98cef63568529aeb2bf7a69a33a8",
	"fig9b":  "04a52614c45521955d4a04d52088dcceee9985fd2d0208f81f08456f6863f983",
	"robust": "dd7605b0e8382828fbabebf4c0c977d7129145ccea3a4467fdf635fed4fd4bee",
	"table2": "98f360d7a8d6e6e580a50420c132980f559fe446c8ddadf6d2c40122454557a7",
	"table3": "ff12f10ca85d880fad2eec4e845d9d12c6b3dc530b5be236bc1982da373be479",
}

func TestRegistryRunsEveryExperiment(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			if testing.Short() && slowExperiments[id] {
				t.Skipf("%s is slow; skipped in -short mode", id)
			}
			tbl, err := Run(id, microScale)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("empty table")
			}
			if len(tbl.Header) == 0 || tbl.Title == "" {
				t.Fatal("missing title/header")
			}
			for _, r := range tbl.Rows {
				if len(r) != len(tbl.Header) {
					t.Fatalf("row width %d != header width %d: %v", len(r), len(tbl.Header), r)
				}
			}
			s := tbl.String()
			if len(s) == 0 {
				t.Fatal("empty rendering")
			}
			if id == "fig15b" || runtime.GOARCH != "amd64" {
				return
			}
			want, ok := goldenTables[id]
			if !ok {
				t.Fatalf("no golden digest for %s", id)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(s))); got != want {
				t.Fatalf("table digest %s, want %s:\n%s", got, want, s)
			}
		})
	}
}

// Fig. 12a pairs Decima's and Graphene*'s jobs and bins them by total work.
// TPC-H jobs often share a total work, so the pairing order decides which
// quintile a tied job lands in; it must not vary from run to run.
func TestFig12Deterministic(t *testing.T) {
	sc := ScaleSmall
	sc.TrainIters, sc.EpisodesPerIter = 1, 1
	first := Fig12(sc).String()
	for i := 1; i < 5; i++ {
		if again := Fig12(sc).String(); again != first {
			t.Fatalf("run %d differs from run 0:\n%s\nvs\n%s", i, again, first)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("fig99", microScale); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestFig2SweetSpotShape(t *testing.T) {
	// Q9@100GB keeps improving towards ~40 parallel tasks.
	r5 := Fig2Runtime(9, 100, 5, 1)
	r40 := Fig2Runtime(9, 100, 40, 1)
	if r40 >= r5 {
		t.Fatalf("Q9@100GB: runtime(40)=%v not below runtime(5)=%v", r40, r5)
	}
	// Q2@100GB gains little beyond ~20 tasks.
	q2at20 := Fig2Runtime(2, 100, 20, 1)
	q2at100 := Fig2Runtime(2, 100, 100, 1)
	if q2at100 < q2at20*0.8 {
		t.Fatalf("Q2@100GB kept scaling past its sweet spot: %v → %v", q2at20, q2at100)
	}
	// Q9@2GB needs only a handful of tasks.
	q9small10 := Fig2Runtime(9, 2, 10, 1)
	q9small80 := Fig2Runtime(9, 2, 80, 1)
	if q9small80 < q9small10*0.7 {
		t.Fatalf("Q9@2GB kept scaling: %v → %v", q9small10, q9small80)
	}
}

func TestFig16CriticalPathSuboptimal(t *testing.T) {
	tbl := Fig16(Scale{Seed: 1})
	// last row is the cp/planned ratio
	ratio, err := strconv.ParseFloat(tbl.Rows[2][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if ratio <= 1.0 {
		t.Fatalf("critical-path-first should be slower than planned: ratio %v", ratio)
	}
}

func TestFig18DetailedDiffersFromIdealised(t *testing.T) {
	sc := microScale
	sc.Runs = 4
	sc.Executors = 6
	tbl := Fig18(sc)
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v <= 0 {
			t.Fatalf("%s: zero error between detailed and idealised sims", row[0])
		}
	}
}

func TestFig19TwoLevelLearnsCriticalPath(t *testing.T) {
	sc := Scale{Seed: 1, TrainIters: 400}
	tbl := Fig19(sc, 400)
	last := tbl.Rows[len(tbl.Rows)-1]
	two, err := strconv.ParseFloat(last[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if two < 50 {
		t.Fatalf("two-level accuracy after training = %v%%, want ≥ 50%%", two)
	}
}

// Fig. 15a's "decima" curve must end on the agent every other figure
// trains: same configs, same seeds, same total iterations.
func TestFig15aDecimaIsTrainAgent(t *testing.T) {
	sc := microScale
	tbl := Fig15a(sc, 1)
	got := tbl.Rows[len(tbl.Rows)-1][1]
	simCfg := sim.SparkDefaults(sc.Executors)
	agent := trainAgent(sc, simCfg, smallJobSource(sc.BatchJobs, 2), nil, nil)
	jct, _ := rl.Evaluate(agent, evalSeqs(2, sc.BatchJobs, sc.Seed+4000), simCfg, sc.Seed)
	if want := fmt.Sprintf("%.4g", jct); got != want {
		t.Fatalf("Fig15a final decima cell %s, trainAgent evaluates to %s", got, want)
	}
}

// TestDecimaLearnsFig9a is the learning gate: Fig. 9a's Decima, trained as
// the figure trains it at ScaleSmall, must schedule its held-out batches
// better than FIFO and better than its own untrained initialisation. Training
// is bit-identical for any worker count, so this is an exact assertion, not
// a statistical one. With the per-decision average-reward shift of the old
// recipe the trained agent scored 1408 s against FIFO's 1317 s and failed it.
func TestDecimaLearnsFig9a(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 150 iterations at ScaleSmall (≈15 s)")
	}
	sc := ScaleSmall
	simCfg := sim.SparkDefaults(sc.Executors)
	seqs := evalSeqs(sc.Runs, sc.BatchJobs, sc.Seed+100) // Fig. 9a's
	fifo, _ := rl.EvaluateScheduler(policy(sc, simCfg, "fifo", nil), seqs, simCfg, sc.Seed)
	agent, tr := newTrainer(sc, simCfg, nil, nil)
	untrained, _ := rl.Evaluate(agent, seqs, simCfg, sc.Seed)
	tr.Train(sc.TrainIters, smallJobSource(sc.BatchJobs, 3), simCfg, nil)
	trained, _ := rl.Evaluate(agent, seqs, simCfg, sc.Seed)
	t.Logf("mean avg JCT: trained %.1f s, untrained %.1f s, fifo %.1f s", trained, untrained, fifo)
	if trained >= fifo || trained >= untrained {
		t.Fatalf("trained Decima %.1f s does not beat FIFO (%.1f s) and its initialisation (%.1f s)", trained, fifo, untrained)
	}
}

func TestFig22ExhaustiveIsLowerBoundOnOrderings(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive ordering search is slow; skipped in -short mode")
	}
	sc := microScale
	sc.Executors = 5
	tbl := Fig22(sc)
	get := func(name string) float64 {
		for _, r := range tbl.Rows {
			if r[0] == name {
				v, err := strconv.ParseFloat(r[1], 64)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
		}
		t.Fatalf("row %q missing", name)
		return 0
	}
	best := get("exhaustive order search")
	if best > get("sjf-cp")+1e-9 {
		t.Fatalf("exhaustive (%v) worse than SJF-CP (%v)", best, get("sjf-cp"))
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"a", "bb"}}
	tbl.Add("x", 1.23456)
	tbl.Add(7, "y")
	s := tbl.String()
	if s == "" || len(tbl.Rows) != 2 {
		t.Fatal("table formatting broken")
	}
	if tbl.Rows[0][1] != "1.235" {
		t.Fatalf("float formatting = %q", tbl.Rows[0][1])
	}
}

func TestTuneWeightedFairPicksReasonableAlpha(t *testing.T) {
	seqs := evalSeqs(2, 6, 99)
	cfg := sim.SparkDefaults(6)
	alpha := tuneWeightedFair(seqs, cfg, 1)
	if alpha < -2 || alpha > 2 {
		t.Fatalf("alpha %v outside sweep range", alpha)
	}
}

func TestRobustMatrixSemantics(t *testing.T) {
	sc := microScale
	sc.Schedulers = []string{"fifo", "sjf-cp"}
	sc.Failures = []string{"clean", "lossy", "flash-churn"}
	tbl, doc := RobustMatrix(sc)
	if want := len(sc.Schedulers) * len(sc.Failures); len(doc.Cells) != want || len(tbl.Rows) != want {
		t.Fatalf("got %d cells / %d rows, want %d", len(doc.Cells), len(tbl.Rows), want)
	}
	for _, c := range doc.Cells {
		if c.Deadlock {
			t.Fatalf("%s under %s deadlocked", c.Scheduler, c.Regime)
		}
		if c.Completed+c.FailedJobs+c.Unfinished != sc.ContinuousJobs {
			t.Fatalf("%s under %s: %d+%d+%d jobs, want %d", c.Scheduler, c.Regime,
				c.Completed, c.FailedJobs, c.Unfinished, sc.ContinuousJobs)
		}
		switch c.Regime {
		case "clean":
			if c.Retries != 0 || c.FailedTasks != 0 || c.Stragglers != 0 || c.ChurnLeaves != 0 {
				t.Fatalf("clean regime has failure counters: %+v", c)
			}
		case "lossy":
			if c.FailedTasks == 0 {
				t.Fatalf("lossy regime saw no task failures: %+v", c)
			}
		case "flash-churn":
			if c.ChurnLeaves == 0 {
				t.Fatalf("flash-churn regime saw no departures: %+v", c)
			}
		}
	}
}

func TestRobustMatrixDeterministic(t *testing.T) {
	sc := microScale
	sc.Schedulers = []string{"fifo"}
	sc.Failures = []string{"lossy"}
	_, a := RobustMatrix(sc)
	_, b := RobustMatrix(sc)
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Fatalf("cell %d differs across identical runs:\n%+v\nvs\n%+v", i, a.Cells[i], b.Cells[i])
		}
	}
}
