package main

import (
	"strings"
	"testing"
	"time"
)

func TestTraceDigestFollowsSeed(t *testing.T) {
	for name, spec := range servingSpecs {
		spec = spec.smoke()
		a, b, c := spec.traces(7), spec.traces(7), spec.traces(8)
		for cl := range a {
			for i := range a[cl] {
				if a[cl][i].digest() != b[cl][i].digest() {
					t.Errorf("%s: client %d trace %d: same seed, different digest", name, cl, i)
				}
				if a[cl][i].digest() == c[cl][i].digest() {
					t.Errorf("%s: client %d trace %d: different seed, same digest", name, cl, i)
				}
			}
		}
		if spec.clients > 1 && a[0][0].digest() == a[1][0].digest() {
			t.Errorf("%s: two clients were handed the same trace", name)
		}
	}
	spec := trainReplay.smoke()
	if spec.evalTraces(7)[0].digest() != spec.evalTraces(7)[0].digest() || spec.evalTraces(7)[0].digest() == spec.evalTraces(8)[0].digest() {
		t.Error("train-replay: evaluation trace digest does not follow the seed")
	}
}

// Every serving workload, at smoke scale, through the same code path the
// command runs: the set-ups, a measured pass, the oracle, every
// end-to-end metric present and positive.
func TestServingWorkloadsPassTheirOracle(t *testing.T) {
	for name, spec := range servingSpecs {
		rec, err := measureServing(spec.smoke(), 3, 0.3, -1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRecord(t, name, rec)
	}
}

func TestTrainReplayPassesItsOracle(t *testing.T) {
	rec, err := measureTraining(trainReplay.smoke(), 3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	checkRecord(t, "train-replay", rec)

	// Two passes of two iterations from the same seeds end on the same
	// parameters; another seed does not.
	spec := trainReplay.smoke()
	a := spec.train(5, spec.workers, 2, nil, forIters(2))
	b := spec.train(5, 1, 2, nil, forIters(2))
	c := spec.train(6, spec.workers, 2, nil, forIters(2))
	if !equalHashes(a.hashes, b.hashes) {
		t.Error("same seeds, different worker counts: parameter hashes differ")
	}
	if equalHashes(a.hashes, c.hashes) {
		t.Error("different trainer seeds produced the same parameter hashes")
	}
}

func checkRecord(t *testing.T, name string, rec *record) {
	t.Helper()
	if rec.Failed != 0 || rec.Attempted < 1 {
		t.Errorf("%s: attempted %d failed %d", name, rec.Attempted, rec.Failed)
	}
	got := rec.result().Metrics
	if len(got) != len(endToEnd) {
		t.Errorf("%s: result carries %d metrics, want %d", name, len(got), len(endToEnd))
	}
	for _, s := range endToEnd {
		if m, ok := rec.Metrics[s.Name]; !ok || !(m.Value > 0) || m.Unit != s.Unit {
			t.Errorf("%s: metric %s = %+v, want a positive value in %s", name, s.Name, m, s.Unit)
		}
	}
	if rec.Claim != nil {
		t.Errorf("%s: a measuring run claims nothing, got %q", name, *rec.Claim)
	}
}

// One flipped action anywhere in a served session must fail the run.
func TestOracleCatchesOneFlippedAction(t *testing.T) {
	for _, name := range []string{"session-stream", "session-churn"} {
		rec, err := measureServing(servingSpecs[name].smoke(), 3, 0.3, 4)
		if rec == nil {
			t.Fatalf("%s: corrupted run did not measure at all: %v", name, err)
		}
		if err == nil || !strings.Contains(err.Error(), "differs from in-process reference") {
			t.Errorf("%s: flipped action 4 went unnoticed (err = %v)", name, err)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := newSpanLog()
	at := func(us int) time.Time { return l.t0.Add(time.Duration(us) * time.Microsecond) }
	root := l.begin("client.schedule", 1, 0, at(0))
	l.child("rpcsvc.event", 1, at(20), at(70))
	l.end(root, at(100))
	l.child("rpcsvc.event", 1, at(200), at(210)) // no call in flight: a root of its own
	got := map[string]layerTime{}
	for _, lt := range l.selfTimes() {
		got[lt.Name] = lt
	}
	if c := got["client.schedule"]; c.Count != 1 || c.TotalUS != 100 || c.SelfUS != 50 {
		t.Errorf("client.schedule: %+v, want 1 span, 100 µs total, 50 µs self", c)
	}
	if e := got["rpcsvc.event"]; e.Count != 2 || e.TotalUS != 60 || e.SelfUS != 60 {
		t.Errorf("rpcsvc.event: %+v, want 2 spans, 60 µs total and self", e)
	}
	if l.spans[1].Parent != root || l.spans[1].Event != 0 || l.spans[2].Parent != -1 {
		t.Errorf("parents: %+v", l.spans)
	}
}
