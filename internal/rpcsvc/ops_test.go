package rpcsvc

import (
	"flag"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/online"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// golden compares got with testdata/name, or rewrites the file under
// -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("%s differs from the golden page:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// TestReplicaMetricsGolden pins the replica's /metrics page byte for byte:
// every counter of the service object set to a distinct value, a fixed set
// of decide latencies, a versioned model, draining, and the online
// trainer's counters appended as the serving binary appends them.
func TestReplicaMetricsGolden(t *testing.T) {
	d := NewDecimaSessions(SessionConfig{ReplicaID: "r1"})
	st := &d.stats
	for i, c := range []*atomic.Uint64{
		&st.Opens, &st.Closes, &st.Events, &st.OpensRejected, &st.SeqGaps,
		&st.Shed, &st.DeadlineMiss, &st.EvictedLRU, &st.EvictedIdle,
		&st.RecordingOpens, &st.Swaps, &st.Panics,
	} {
		c.Store(uint64(i + 1))
	}
	st.Inflight.Store(13)
	for _, us := range []int{10, 30, 30, 700, 4000, 2_000_000} {
		st.Decide.Observe(time.Duration(us) * time.Microsecond)
	}
	d.SetModel("decima", 3)
	d.draining.Store(true)

	tr := online.New(core.New(core.DefaultConfig(4), rand.New(rand.NewSource(1))))
	tr.Submit(nil)
	tr.Submit(nil)
	tr.Submit(make([]core.ReplayStep, 3))

	rec := httptest.NewRecorder()
	NewOpsHandler(d, tr.WriteProm).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	golden(t, "replica_metrics.prom", rec.Body.String())
}
