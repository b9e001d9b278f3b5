package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// verdict is compare's judgement of one (metric, workload) pair.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
	unbounded  verdict = "-" // per-layer and informational metrics carry no bound
)

// comparison is one row of compare's table.
type comparison struct {
	Workload, Metric   string
	Unit               string
	A, B               []float64
	MedA, Q1A, Q3A     float64
	MedB, Q1B, Q3B     float64
	Wins, Losses, Ties int // over index-paired runs, from B's point of view
	Verdict            verdict
}

// judge applies the choosing-metrics §8 rule to one pair of samples whose
// i-th elements were run as a pair. A gain is claimed only when B wins at
// least nine tenths of the pairs (ties count for neither side) and the
// medians differ by more than the spread between A's own runs, taken as the
// distance between A's quartiles. Failing that, a pair whose base spread is
// wider than the bound cannot be called unchanged — it is unresolved, unless
// every B run reads better than every A run — and otherwise it is regressed
// when B's median is worse than A's by more than the bound.
func judge(a, b []float64, spec metricSpec) comparison {
	c := comparison{A: a, B: b, Metric: spec.Name, Unit: spec.Unit}
	c.MedA, c.MedB = median(a), median(b)
	c.Q1A, c.Q3A = quartiles(a)
	c.Q1B, c.Q3B = quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if spec.Better == "higher" {
			return x > y
		}
		return x < y
	}
	pairs := len(a)
	if len(b) < pairs {
		pairs = len(b)
	}
	for i := 0; i < pairs; i++ {
		switch {
		case better(b[i], a[i]):
			c.Wins++
		case better(a[i], b[i]):
			c.Losses++
		default:
			c.Ties++
		}
	}
	if spec.Bound == 0 {
		c.Verdict = unbounded
		return c
	}
	iqrA := c.Q3A - c.Q1A
	gap := c.MedB - c.MedA // signed; "worse" depends on direction
	worse := gap
	if spec.Better == "higher" {
		worse = -gap
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case pairs > 0 && float64(c.Wins) >= 0.9*float64(pairs) && -worse > iqrA:
		c.Verdict = improved
	case iqrA/math.Abs(c.MedA) > spec.Bound && !allBetter:
		c.Verdict = unresolved
	case worse/math.Abs(c.MedA) > spec.Bound:
		c.Verdict = regressed
	default:
		c.Verdict = unchanged
	}
	return c
}

// compareRecords lines two sets of records up per (workload, metric). Runs
// pair by position within a workload, so pass each side's files in the order
// they were run.
func compareRecords(as, bs []*record) []comparison {
	type key struct{ workload, metric string }
	collect := func(rs []*record) (map[key][]float64, map[key]string) {
		m, units := map[key][]float64{}, map[key]string{}
		for _, r := range rs {
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				m[k] = append(m[k], v.Value)
				units[k] = v.Unit
			}
		}
		return m, units
	}
	am, units := collect(as)
	bm, _ := collect(bs)
	bounds := specByName(endToEnd)
	layers := specByName(perLayer)
	var out []comparison
	for k, a := range am {
		b, ok := bm[k]
		if !ok {
			continue
		}
		spec, ok := bounds[k.metric]
		if !ok {
			if spec, ok = layers[k.metric]; !ok {
				spec = metricSpec{Name: k.metric, Unit: units[k], Better: "lower"}
			}
		}
		c := judge(a, b, spec)
		c.Workload = k.workload
		out = append(out, c)
	}
	order := map[string]int{}
	for i, s := range endToEnd {
		order[s.Name] = i - len(endToEnd)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		if oi, oj := order[out[i].Metric], order[out[j].Metric]; oi != oj {
			return oi < oj
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}

func printComparisons(cs []comparison) {
	fmt.Printf("%-15s %-28s %-8s %12s %25s %12s %25s %8s %9s  %s\n",
		"workload", "metric", "unit", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B-A %", "win/loss", "verdict")
	for _, c := range cs {
		fmt.Printf("%-15s %-28s %-8s %12.4g %25s %12.4g %25s %+8.2f %5d/%-3d  %s\n",
			c.Workload, c.Metric, c.Unit,
			c.MedA, fmt.Sprintf("[%.4g, %.4g]", c.Q1A, c.Q3A),
			c.MedB, fmt.Sprintf("[%.4g, %.4g]", c.Q1B, c.Q3B),
			100*(c.MedB-c.MedA)/math.Abs(c.MedA), c.Wins, c.Losses, c.Verdict)
	}
}

func readRecords(paths []string) ([]*record, error) {
	var out []*record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		r := new(record)
		if err := json.Unmarshal(b, r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: the run failed its oracle; its numbers are not comparable", p)
		}
		out = append(out, r)
	}
	return out, nil
}

// compareMain implements `bench compare A.json… -- B.json…`. It exits 1 when
// any bounded pair regressed.
func compareMain(args []string) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split <= 0 || split == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json… -- B.json…   (records in run order; A is the base)")
		return 2
	}
	as, err := readRecords(args[:split])
	if err == nil {
		var bs []*record
		if bs, err = readRecords(args[split+1:]); err == nil {
			cs := compareRecords(as, bs)
			printComparisons(cs)
			printDisturbed("A", as)
			printDisturbed("B", bs)
			for _, c := range cs {
				if c.Verdict == regressed {
					return 1
				}
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

// stealFlag is the share of processor time lost to the host above which a
// run is called disturbed. On a quiet box a pass loses under 1 %.
const stealFlag = 0.03

// printDisturbed lists the runs whose host took more than stealFlag of the
// box's processor time away during the measured pass. Their numbers are
// what was observed, and they stay in the comparison; the list says which
// side of a verdict to re-run before believing it.
func printDisturbed(side string, rs []*record) {
	for i, r := range rs {
		if m, ok := r.Metrics["host.steal_frac"]; ok && m.Value > stealFlag {
			fmt.Printf("disturbed: side %s run %d (%s, seed %d) lost %.1f%% of processor time to the host\n", side, i, r.Workload, r.Seed, 100*m.Value)
		}
	}
}

// aaMain runs n A/A pairs of every workload — the same binary on both
// sides, alternating which side goes first, a fresh seed per pair — through
// compare. Same code must come out "unchanged" everywhere with every spread
// inside its bound; anything else means the benchmark, not the code, is too
// noisy to carry the bounds it claims.
func aaMain(n int, seed int64, seconds float64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -aa:", err)
		return 2
	}
	dir := filepath.Join("out", "aa")
	var as, bs []string
	for _, w := range workloads {
		for i := 0; i < n; i++ {
			sides := []string{"A", "B"}
			if i%2 == 1 {
				sides[0], sides[1] = sides[1], sides[0]
			}
			for _, side := range sides {
				path := filepath.Join(dir, fmt.Sprintf("%s-%s%d.json", w.Name, side, i))
				cmd := exec.Command(exe, "--workload", w.Name, "--seed", fmt.Sprint(seed+int64(i)), "--seconds", fmt.Sprint(seconds), "--out", path)
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "bench -aa: %s side %s pair %d: %v\n", w.Name, side, i, err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "bench -aa: %s\n", path)
				if side == "A" {
					as = append(as, path)
				} else {
					bs = append(bs, path)
				}
			}
		}
	}
	ra, err := readRecords(as)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -aa:", err)
		return 2
	}
	rb, err := readRecords(bs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -aa:", err)
		return 2
	}
	cs := compareRecords(ra, rb)
	printComparisons(cs)
	printDisturbed("A", ra)
	printDisturbed("B", rb)
	bad := 0
	for _, c := range cs {
		if c.Verdict == unbounded {
			continue
		}
		bound := specByName(endToEnd)[c.Metric].Bound
		sp := spread(append(append([]float64(nil), c.A...), c.B...))
		if c.Verdict != unchanged {
			fmt.Printf("A/A FAIL: %s %s judged %s\n", c.Workload, c.Metric, c.Verdict)
			bad++
		}
		if sp > bound {
			fmt.Printf("A/A FAIL: %s %s spread %.2f%% exceeds its bound %.0f%%\n", c.Workload, c.Metric, 100*sp, 100*bound)
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	fmt.Println("A/A: every bounded (metric, workload) pair unchanged, every spread inside its bound")
	return 0
}
