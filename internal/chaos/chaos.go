// Package chaos is a deterministic fault-injection layer for the serving
// stack's transports. An Injector wraps net.Conn values (via a dialer or a
// listener) and perturbs traffic with added latency, stalls, connection
// resets and timed partition windows — the failure modes the rpcsvc
// self-healing ladder and the fleet router claim to absorb — so tests and
// decima-smoke's chaos scenario can drive a noisy run and check it heals to
// the uninterrupted reference schedule.
//
// Determinism: every random draw comes from a named seeded stream —
// fnv1a(stream name) folded into the injector seed — so a stream's fault
// sequence is a pure function of (seed, name, draw index). Each wrapped
// connection gets numbered read/write streams ("conn-3-read"), and each
// direction of a connection draws sequentially (each side's mutex orders
// them; rpcsvc runs a connection's calls in lockstep, one write and then
// one read at a time), so the per-connection fault pattern is bitwise
// reproducible run over run. Partition windows are the
// one wall-clock-driven fault: they cycle from the injector's start, which
// is what makes them overlap in-flight traffic instead of aligning to it.
//
// Injected failures surface as *net.OpError, exactly what a kernel-level
// reset or drop produces, so rpcsvc.IsTransient classifies them — chaos is
// indistinguishable from real weather to the recovery ladder, which is the
// point.
package chaos

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterises an Injector. The zero value injects nothing; each
// fault class is enabled by its own field, so a test can run pure-latency
// or pure-reset weather.
type Config struct {
	// Seed roots every named stream; two injectors with equal seeds (and
	// equal traffic) produce identical fault sequences.
	Seed int64
	// Latency adds a uniform draw in [0, Latency) before every Read and
	// Write. Zero adds none.
	Latency time.Duration
	// StallProb stalls an op (sleep Stall, then proceed) with this
	// probability — the long-pause failure mode that trips client deadlines
	// without killing the connection.
	StallProb float64
	// Stall is the stall duration (zero with StallProb > 0 stalls for
	// Latency, or not at all when both are zero).
	Stall time.Duration
	// ResetProb kills the connection on an op with this probability: the op
	// returns *net.OpError and the conn is closed, as a mid-flight RST
	// would.
	ResetProb float64
	// PartitionPeriod/PartitionWindow cycle a full network partition: every
	// period (measured from the injector's start), dials fail and live
	// connections die for the first window of the cycle. Period <= 0
	// disables partitions.
	PartitionPeriod time.Duration
	PartitionWindow time.Duration
}

// Injector mints fault-injecting wrappers around connections, dialers and
// listeners. Safe for concurrent use.
type Injector struct {
	cfg   Config
	start time.Time
	conns atomic.Uint64
}

// New builds an Injector; partition cycles start now.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, start: time.Now()}
}

// Stream returns the named deterministic randomness stream: a rand seeded
// by fnv1a(name) folded into the injector seed. Every internal draw uses
// one; tests and harnesses share the same namespace for their own jitter
// so a whole scenario replays from one seed. Not safe for concurrent use —
// one stream per goroutine.
func (in *Injector) Stream(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(in.cfg.Seed ^ int64(h.Sum64())))
}

// partitioned reports whether wall-clock now falls in a partition window.
func (in *Injector) partitioned() bool {
	if in.cfg.PartitionPeriod <= 0 || in.cfg.PartitionWindow <= 0 {
		return false
	}
	phase := time.Since(in.start) % in.cfg.PartitionPeriod
	return phase < in.cfg.PartitionWindow
}

var (
	errReset     = errors.New("chaos: injected connection reset")
	errPartition = errors.New("chaos: network partitioned")
)

// opError wraps an injected failure the way the kernel would, so transport
// classification (rpcsvc.IsTransient) treats chaos like real weather.
func opError(op string, err error) *net.OpError {
	return &net.OpError{Op: op, Net: "tcp", Err: err}
}

// Dialer returns a dial function (the rpcsvc.DialWith shape) that fails
// during partition windows and wraps every successful connection.
func (in *Injector) Dialer() func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		if in.partitioned() {
			return nil, opError("dial", errPartition)
		}
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return in.Wrap(c), nil
	}
}

// Wrap interposes the injector on one connection. Each wrapped connection
// gets its own numbered read and write streams, so per-direction fault
// sequences are deterministic in the order connections are wrapped.
func (in *Injector) Wrap(c net.Conn) net.Conn {
	name := "conn-" + strconv.FormatUint(in.conns.Add(1), 10)
	return &conn{
		Conn: c,
		in:   in,
		r:    side{rng: in.Stream(name + "-read")},
		w:    side{rng: in.Stream(name + "-write")},
	}
}

// Listen wraps a listener so every accepted connection is injected —
// server-side chaos, for tests that want the noise on the serving half.
func (in *Injector) Listen(l net.Listener) net.Listener {
	return &listener{Listener: l, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.Wrap(c), nil
}

// side is one direction's fault state: its stream plus the mutex
// serialising draws (net.Conn allows concurrent Read and Write; each
// direction must still draw in sequence).
type side struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// conn is one injected connection.
type conn struct {
	net.Conn
	in   *Injector
	r, w side
}

// fault runs one direction's pre-op weather: partition kill, injected
// reset, stall, latency — in that order, with a fixed draw count per op so
// a stream's sequence stays aligned whatever fires.
func (c *conn) fault(s *side, op string) error {
	if c.in.partitioned() {
		c.Conn.Close()
		return opError(op, errPartition)
	}
	cfg := &c.in.cfg
	s.mu.Lock()
	reset := s.rng.Float64()
	stall := s.rng.Float64()
	lat := s.rng.Float64()
	s.mu.Unlock()
	if cfg.ResetProb > 0 && reset < cfg.ResetProb {
		c.Conn.Close()
		return opError(op, errReset)
	}
	if cfg.StallProb > 0 && stall < cfg.StallProb {
		d := cfg.Stall
		if d <= 0 {
			d = cfg.Latency
		}
		time.Sleep(d)
	}
	if cfg.Latency > 0 {
		time.Sleep(time.Duration(lat * float64(cfg.Latency)))
	}
	return nil
}

func (c *conn) Read(b []byte) (int, error) {
	if err := c.fault(&c.r, "read"); err != nil {
		return 0, err
	}
	return c.Conn.Read(b)
}

func (c *conn) Write(b []byte) (int, error) {
	if err := c.fault(&c.w, "write"); err != nil {
		return 0, err
	}
	return c.Conn.Write(b)
}
