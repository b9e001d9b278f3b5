package fleet

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/rpcsvc"
)

// ProbeResult is what one health probe learned about a replica beyond
// plain liveness.
type ProbeResult struct {
	// Draining reports the replica declared itself draining.
	Draining bool
	// Model is the replica's served model identity ("name@version", from
	// /healthz); empty when the replica runs unversioned parameters or the
	// probe fell back to a TCP dial.
	Model string
}

// ProbeFunc checks one replica's health. addr is the RPC address, opsAddr
// the HTTP ops address ("" when the replica has none). It reports what the
// replica declared about itself, and a non-nil error when the replica looks
// dead.
type ProbeFunc func(addr, opsAddr string) (ProbeResult, error)

// probeTimeout bounds one health probe.
const probeTimeout = 2 * time.Second

// DefaultProbe prefers the replica's /healthz ops endpoint — which also
// reports drain state and model identity, so a replica's SIGTERM drain and
// its hot-swapped model version propagate to the router — and falls back to
// a plain TCP dial of the RPC address when no ops endpoint is configured or
// it stops answering.
func DefaultProbe(addr, opsAddr string) (ProbeResult, error) {
	if opsAddr != "" {
		c := &http.Client{Timeout: probeTimeout}
		resp, err := c.Get("http://" + opsAddr + "/healthz")
		if err == nil {
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return ProbeResult{}, fmt.Errorf("fleet: probe %s: status %s", opsAddr, resp.Status)
			}
			var hs rpcsvc.HealthStatus
			if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
				return ProbeResult{}, fmt.Errorf("fleet: probe %s: %w", opsAddr, err)
			}
			return ProbeResult{Draining: hs.Status == "draining", Model: hs.Model}, nil
		}
		// Ops endpoint unreachable; the RPC listener may still be fine.
	}
	conn, err := net.DialTimeout("tcp", addr, probeTimeout)
	if err != nil {
		return ProbeResult{}, err
	}
	conn.Close()
	return ProbeResult{}, nil
}

// Start launches the active health loop: every HealthInterval each replica
// is probed, failures and successes feeding the same DownAfter/upAfter
// hysteresis as passive forwarding errors. A replica whose probe reports
// "draining" is drained router-side too, migrating its sessions. No-op when
// the interval is negative or the router is already running.
func (rt *Router) Start() {
	if rt.cfg.HealthInterval < 0 || !rt.health.CompareAndSwap(false, true) {
		return
	}
	go rt.healthLoop()
}

func (rt *Router) healthRunning() bool { return rt.health.Load() }

func (rt *Router) healthLoop() {
	defer close(rt.done)
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
		}
		rt.mu.RLock()
		reps := make([]*replica, 0, len(rt.replicas))
		for _, rep := range rt.replicas {
			reps = append(reps, rep)
		}
		rt.mu.RUnlock()
		for _, rep := range reps {
			res, err := rt.cfg.Probe(rep.addr, rep.opsAddr)
			if err != nil {
				rt.markFailed(rep, "probe: "+err.Error())
				continue
			}
			rt.markProbeOK(rep)
			if res.Model != "" {
				rep.mu.Lock()
				rep.model = res.Model
				rep.mu.Unlock()
			}
			if res.Draining {
				rt.DrainReplica(rep.id)
			}
		}
	}
}
