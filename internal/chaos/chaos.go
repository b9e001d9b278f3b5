// Package chaos is a deterministic fault-injection layer for the serving
// stack's transports. An Injector's dialer wraps each net.Conn it opens and
// perturbs the traffic with added latency and connection resets — the
// failure modes the rpcsvc self-healing ladder claims to absorb — so tests
// and decima-smoke's chaos scenario can drive a noisy run and check it heals
// to the uninterrupted reference schedule.
//
// Determinism: every random draw comes from a named seeded stream —
// fnv1a(stream name) folded into the injector seed — so a stream's fault
// sequence is a pure function of (seed, name, draw index). Each wrapped
// connection gets numbered read/write streams ("conn-3-read"), and each
// direction of a connection draws sequentially (each side's mutex orders
// them; rpcsvc runs a connection's calls in lockstep, one write and then
// one read at a time), so the per-connection fault pattern — which
// operation resets, how long each one sleeps — is a pure function of
// (seed, traffic), bitwise reproducible run over run.
//
// Injected failures surface as *net.OpError, exactly what a kernel-level
// reset produces, so rpcsvc.IsTransient classifies them — chaos is
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
	// ResetProb kills the connection on an op with this probability: the op
	// returns *net.OpError and the conn is closed, as a mid-flight RST
	// would.
	ResetProb float64
}

// Injector mints fault-injecting dialers. Safe for concurrent use.
type Injector struct {
	cfg   Config
	conns atomic.Uint64
	sleep func(time.Duration) // time.Sleep; tests record the latencies instead
}

// New builds an Injector.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, sleep: time.Sleep}
}

// stream returns the named deterministic randomness stream: a rand seeded
// by fnv1a(name) folded into the injector seed. Not safe for concurrent
// use — one stream per goroutine.
func (in *Injector) stream(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(in.cfg.Seed ^ int64(h.Sum64())))
}

var errReset = errors.New("chaos: injected connection reset")

// Dialer returns a dial function (the rpcsvc.DialWith shape) that wraps
// every connection it opens.
func (in *Injector) Dialer() func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return in.wrap(c), nil
	}
}

// wrap interposes the injector on one connection. Each wrapped connection
// gets its own numbered read and write streams, so per-direction fault
// sequences are deterministic in the order connections are wrapped.
func (in *Injector) wrap(c net.Conn) net.Conn {
	name := "conn-" + strconv.FormatUint(in.conns.Add(1), 10)
	return &conn{
		Conn: c,
		in:   in,
		r:    side{rng: in.stream(name + "-read")},
		w:    side{rng: in.stream(name + "-write")},
	}
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

// fault runs one direction's pre-op weather: injected reset, then latency,
// with a fixed draw count per op so a stream's sequence stays aligned
// whatever fires. An injected failure is a *net.OpError, as the kernel
// would report it.
func (c *conn) fault(s *side, op string) error {
	cfg := &c.in.cfg
	s.mu.Lock()
	reset := s.rng.Float64()
	lat := s.rng.Float64()
	s.mu.Unlock()
	if cfg.ResetProb > 0 && reset < cfg.ResetProb {
		c.Conn.Close()
		return &net.OpError{Op: op, Net: "tcp", Err: errReset}
	}
	if cfg.Latency > 0 {
		c.in.sleep(time.Duration(lat * float64(cfg.Latency)))
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
