package main

import (
	"net"
	"net/rpc"
	"sync"
	"time"

	"repro/internal/rpcsvc"
)

// rpcHost is a benchmark-owned net/rpc listener on TCP loopback serving one
// receiver under the name "Decima" — the name rpcsvc.Client calls. The
// ladder uses it to put something other than the stock server behind the
// stock client: a no-op service (wire cost alone) or a tap (handler time
// seen from outside).
type rpcHost struct {
	lis net.Listener
	wg  sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

func hostRPC(rcvr any) (*rpcHost, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Decima", rcvr); err != nil {
		lis.Close()
		return nil, err
	}
	h := &rpcHost{lis: lis, conns: map[net.Conn]struct{}{}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return // listener closed
			}
			h.mu.Lock()
			if h.closed {
				h.mu.Unlock()
				conn.Close()
				return
			}
			h.conns[conn] = struct{}{}
			h.mu.Unlock()
			h.wg.Add(1)
			go func() {
				defer h.wg.Done()
				srv.ServeConn(conn)
				h.mu.Lock()
				delete(h.conns, conn)
				h.mu.Unlock()
			}()
		}
	}()
	return h, nil
}

func (h *rpcHost) Addr() string { return h.lis.Addr().String() }

// Close stops accepting, severs open connections and returns once every
// serving goroutine has exited.
func (h *rpcHost) Close() {
	h.mu.Lock()
	h.closed = true
	for c := range h.conns {
		c.Close()
	}
	h.mu.Unlock()
	h.lis.Close()
	h.wg.Wait()
}

// noop answers the session protocol without doing anything: what remains of
// a round trip to it is net/rpc, gob, TCP loopback and goroutine wake-ups.
// It answers event seq with the seq-th canned response, so the reply on the
// wire is as large as a real one.
type noop struct{ resps []rpcsvc.ScheduleResponse }

func (noop) Open(req *rpcsvc.OpenRequest, resp *rpcsvc.OpenResponse) error { resp.SID = 1; return nil }

func (n noop) Event(req *rpcsvc.EventRequest, resp *rpcsvc.EventResponse) error {
	if i := int(req.Seq) - 1; i >= 0 && i < len(n.resps) {
		resp.ScheduleResponse = n.resps[i]
	}
	return nil
}

func (noop) Close(req *rpcsvc.CloseRequest, resp *rpcsvc.CloseResponse) error { return nil }

// tap forwards the session protocol to a real *rpcsvc.Decima and times each
// handler from outside. With a span log it also records one child span per
// call; with record set it keeps every event request and response it saw,
// which is how the ladder obtains the exact payloads a client sends.
type tap struct {
	d      *rpcsvc.Decima
	record bool

	mu            sync.Mutex
	spans         *spanLog
	open, closeT  time.Duration
	opens, closes int
	evDur         []int64        // every Event handler's duration, ns
	owner         map[uint64]int // session id → client index (OpenRequest.Seed)
	reqs          []*rpcsvc.EventRequest
	resps         []rpcsvc.ScheduleResponse
}

func newTap(d *rpcsvc.Decima, record bool) *tap {
	return &tap{d: d, record: record, owner: map[uint64]int{}}
}

// trace turns span recording on (or, with nil, off) from the next call.
func (t *tap) trace(spans *spanLog) {
	t.mu.Lock()
	t.spans = spans
	t.mu.Unlock()
}

func (t *tap) Open(req *rpcsvc.OpenRequest, resp *rpcsvc.OpenResponse) error {
	t0 := time.Now()
	err := t.d.Open(req, resp)
	t1 := time.Now()
	t.mu.Lock()
	t.open += t1.Sub(t0)
	t.opens++
	t.owner[resp.SID] = int(req.Seed)
	spans := t.spans
	t.mu.Unlock()
	if spans != nil {
		spans.child("rpcsvc.open", int(req.Seed), t0, t1)
	}
	return err
}

func (t *tap) Event(req *rpcsvc.EventRequest, resp *rpcsvc.EventResponse) error {
	t0 := time.Now()
	err := t.d.Event(req, resp)
	t1 := time.Now()
	t.mu.Lock()
	t.evDur = append(t.evDur, int64(t1.Sub(t0)))
	client := t.owner[req.SID]
	if t.record {
		t.reqs = append(t.reqs, req)
		t.resps = append(t.resps, resp.ScheduleResponse)
	}
	spans := t.spans
	t.mu.Unlock()
	if spans != nil {
		spans.child("rpcsvc.event", client, t0, t1)
	}
	return err
}

func (t *tap) Close(req *rpcsvc.CloseRequest, resp *rpcsvc.CloseResponse) error {
	t0 := time.Now()
	err := t.d.Close(req, resp)
	t1 := time.Now()
	t.mu.Lock()
	t.closeT += t1.Sub(t0)
	t.closes++
	client := t.owner[req.SID]
	delete(t.owner, req.SID)
	spans := t.spans
	t.mu.Unlock()
	if spans != nil {
		spans.child("rpcsvc.close", client, t0, t1)
	}
	return err
}
