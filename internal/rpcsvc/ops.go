package rpcsvc

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// The ops surface: every serving process (replica or standalone) can expose
// a small HTTP endpoint beside its RPC listener — `decima-server -http` —
// with the two routes a fleet needs:
//
//	GET /healthz  liveness + drain state, polled by the router's health
//	              checker (a draining replica reports status "draining",
//	              which the router treats as "migrate sessions away")
//	GET /metrics  Prometheus text exposition of the ServerStats counters
//
// The fleet router aggregates its own router-side view at /metrics on its
// admin address; per-replica process truth lives here.

// HealthStatus is the /healthz response body.
type HealthStatus struct {
	// Status is "ok" or "draining".
	Status   string `json:"status"`
	Replica  string `json:"replica"`
	Sessions int    `json:"sessions"`
	// Model is the served model identity ("name@version"); empty on
	// unversioned parameters. The fleet health prober carries it onto the
	// router's /fleet view, so a hot-swap is observable fleet-wide.
	Model string `json:"model,omitempty"`
}

// NewOpsHandler returns the HTTP handler serving /healthz and /metrics for
// one Decima service object. Optional extras are appended to the /metrics
// page — the serving binary passes the online trainer's WriteProm so the
// online_* training counters ride the same scrape.
func NewOpsHandler(d *Decima, extras ...func(io.Writer)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		st := HealthStatus{Status: "ok", Replica: d.ReplicaID(), Sessions: d.tbl.len()}
		if name, ver := d.Model(); name != "" {
			st.Model = fmt.Sprintf("%s@%d", name, ver)
		}
		if d.Draining() {
			st.Status = "draining"
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		d.Stats().WriteProm(w)
		for _, extra := range extras {
			extra(w)
		}
	})
	return mux
}
