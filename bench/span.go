package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one served event
// share Client and Event; Parent indexes the span that caused this one (-1
// for a root). Times are nanoseconds since the log was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Client int    `json:"client"`
	Event  int    `json:"event"`
}

// spanLog keeps spans in memory and writes them out when the run ends. All
// of it lives in the benchmark: spans are recorded around calls into the
// packages, never inside them.
type spanLog struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// inflight is the open root span of each client (-1: none), so a
	// handler span recorded on the server side can name the client call that
	// caused it. Client ids are small: 0 for the trainer, 1.. for clients.
	inflight [8]int
}

func newSpanLog() *spanLog {
	l := &spanLog{t0: time.Now()}
	for i := range l.inflight {
		l.inflight[i] = -1
	}
	return l
}

// begin opens a root span for one client event and returns its index.
func (l *spanLog) begin(name string, client, event int, at time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: int64(at.Sub(l.t0)), Parent: -1, Client: client, Event: event})
	id := len(l.spans) - 1
	l.inflight[client] = id
	return id
}

func (l *spanLog) end(id int, at time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id].End = int64(at.Sub(l.t0))
	l.inflight[l.spans[id].Client] = -1
}

// child records a completed span under the client's in-flight root span.
func (l *spanLog) child(name string, client int, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sp := span{Name: name, Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0)), Parent: -1, Client: client}
	if p := l.inflight[client]; p >= 0 {
		sp.Parent, sp.Event = p, l.spans[p].Event
	}
	l.spans = append(l.spans, sp)
}

// layerTime is one span name's totals: Self is its duration minus the part
// of that interval its child spans cover.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

// selfTimes folds the log into per-name totals.
func (l *spanLog) selfTimes() []layerTime {
	l.mu.Lock()
	defer l.mu.Unlock()
	covered := make([]int64, len(l.spans))
	for _, sp := range l.spans {
		if sp.Parent >= 0 {
			covered[sp.Parent] += sp.End - sp.Start
		}
	}
	byName := map[string]*layerTime{}
	for i, sp := range l.spans {
		lt := byName[sp.Name]
		if lt == nil {
			lt = &layerTime{Name: sp.Name}
			byName[sp.Name] = lt
		}
		d := sp.End - sp.Start
		lt.Count++
		lt.TotalUS += float64(d) / 1e3
		lt.SelfUS += float64(d-covered[i]) / 1e3
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write dumps the spans and their per-layer fold to path.
func (l *spanLog) write(path string) error {
	layers := l.selfTimes()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}{layers, l.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
