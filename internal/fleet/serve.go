package fleet

import (
	"encoding/json"
	"net/http"

	"repro/internal/rpcsvc"
)

// service adapts the Router to the session protocol's "Decima" surface. It
// is a separate struct (rather than serving the Router itself) so only the
// three protocol methods are visible to net/rpc, not the Router's admin
// methods.
type service struct{ rt *Router }

// Open places a new session on the routing key's replica.
func (s *service) Open(req *rpcsvc.OpenRequest, resp *rpcsvc.OpenResponse) error {
	return s.rt.open(req, resp)
}

// Event forwards one session event to the session's replica.
func (s *service) Event(req *rpcsvc.EventRequest, resp *rpcsvc.EventResponse) error {
	return s.rt.event(req, resp)
}

// Close releases a session.
func (s *service) Close(req *rpcsvc.CloseRequest, resp *rpcsvc.CloseResponse) error {
	return s.rt.closeSession(req)
}

// Server is a listening fleet router speaking the rpcsvc session protocol
// through the same accept loop a replica uses. Existing clients
// (SessionScheduler) connect to it exactly as they would to a single
// decima-server. Its Close stops the listener and severs client
// connections; it does not stop the Router — call Router.Stop separately.
type Server = rpcsvc.Listener

// ListenAndServe exposes the router's "Decima" RPC surface on addr. The
// router's lifecycle (Start/Stop) stays with the caller.
func ListenAndServe(addr string, rt *Router) (*Server, error) {
	return rpcsvc.Listen(addr, &service{rt: rt})
}

// NewAdminHandler returns the fleet observability/admin HTTP surface:
//
//	GET  /metrics  Prometheus text exposition of the router's fleet view
//	GET  /healthz  router liveness: "ok" with routable replicas, else "degraded"
//	GET  /fleet    replica topology as JSON (ids, addresses, pids, placement)
//	POST /drain    ?replica=ID — migrate the replica's sessions away
func NewAdminHandler(rt *Router) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		rt.WriteProm(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		status := "ok"
		if len(rt.routableIDs()) == 0 {
			status = "degraded"
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":   status,
			"replicas": rt.ring.Len(),
			"sessions": rt.Sessions(),
		})
	})
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rt.Info())
	})
	mux.HandleFunc("/drain", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("replica")
		n, err := rt.DrainReplica(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"replica": id, "migrated": n})
	})
	return mux
}
