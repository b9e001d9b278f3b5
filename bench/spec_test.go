package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the repository root is the contract the PR driver reads;
// spec.go is what the command emits. They must name the same things.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	// 4 + 22 per workload runs, two builds, 3420 s in all: leave a third of
	// it for set-up, oracle and a slower machine.
	if runs := 4 + 22*len(b.Workloads); float64(runs*b.RunSeconds) > 0.67*3420 {
		t.Errorf("%d runs of %d s measure for %d s, more than two thirds of the driver's 3420 s", runs, b.RunSeconds, runs*b.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		use(w.Name)
		if w != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go has %+v", i, w, workloads[i])
		}
		if len(w.Why) > 200 || regexp.MustCompile(`\n`).MatchString(w.Why) {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if !known(w.Name) {
			t.Errorf("workload %s is not runnable", w.Name)
		}
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i := range got {
			use(got[i].Name)
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, spec.go has %+v", kind, i, got[i], want[i])
			}
			if !unit.MatchString(got[i].Unit) || (got[i].Better != "lower" && got[i].Better != "higher") {
				t.Errorf("%s %s: bad unit %q or direction %q", kind, got[i].Name, got[i].Unit, got[i].Better)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	setup := specByName(endToEnd)["setup_s"]
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > setup.Bound {
			t.Errorf("%s: bound %v exceeds setup_s's %v, which must be the largest", m.Name, m.Bound, setup.Bound)
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be in s, lower is better: %+v", setup)
	}
	for _, m := range perLayer {
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
}
