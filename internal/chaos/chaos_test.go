package chaos

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/rpcsvc"
)

// TestStreamsDeterministic pins the determinism contract: a stream's draw
// sequence is a pure function of (seed, name), streams with different
// names are independent, and different seeds diverge.
func TestStreamsDeterministic(t *testing.T) {
	a := New(Config{Seed: 42})
	b := New(Config{Seed: 42})
	s1, s2 := a.stream("conn-1-read"), b.stream("conn-1-read")
	for i := 0; i < 100; i++ {
		if v1, v2 := s1.Float64(), s2.Float64(); v1 != v2 {
			t.Fatalf("draw %d: same seed+name diverged: %v != %v", i, v1, v2)
		}
	}
	other := a.stream("conn-2-read")
	diff := New(Config{Seed: 43}).stream("conn-1-read")
	base := a.stream("conn-1-read")
	sameName, sameSeed := 0, 0
	for i := 0; i < 100; i++ {
		v := base.Float64()
		if other.Float64() == v {
			sameName++
		}
		if diff.Float64() == v {
			sameSeed++
		}
	}
	if sameName > 2 || sameSeed > 2 {
		t.Fatalf("streams not independent: name collisions %d, seed collisions %d", sameName, sameSeed)
	}
}

// memConn is an in-memory connection whose every Read and Write succeeds
// at once, so a fault trace depends on the injector alone.
type memConn struct{ net.Conn }

func (memConn) Read(b []byte) (int, error)  { return len(b), nil }
func (memConn) Write(b []byte) (int, error) { return len(b), nil }
func (memConn) Close() error                { return nil }

// faultTrace drives ops alternating writes and reads through an injector
// seeded with seed, redialing (wrapping a fresh memConn) after each
// injected reset, and returns one line per op: the latency it slept, or
// the reset it hit.
func faultTrace(t *testing.T, seed int64, ops int) []string {
	t.Helper()
	in := New(Config{Seed: seed, Latency: 10 * time.Millisecond, ResetProb: 0.05})
	var slept []time.Duration
	in.sleep = func(d time.Duration) { slept = append(slept, d) }
	c := in.wrap(memConn{})
	trace := make([]string, 0, ops)
	buf := make([]byte, 1)
	for i := 0; i < ops; i++ {
		op, f := "write", c.Write
		if i%2 == 1 {
			op, f = "read", c.Read
		}
		slept = slept[:0]
		if _, err := f(buf); err != nil {
			if !rpcsvc.IsTransient(err) {
				t.Fatalf("op %d: injected %s error not transient: %v", i, op, err)
			}
			trace = append(trace, fmt.Sprintf("%d %s reset", i, op))
			c = in.wrap(memConn{})
			continue
		}
		if len(slept) != 1 {
			t.Fatalf("op %d: %d sleeps, want 1", i, len(slept))
		}
		trace = append(trace, fmt.Sprintf("%d %s sleep %v", i, op, slept[0]))
	}
	return trace
}

// TestFaultsDeterministic pins the fault contract itself, not just the
// streams: two injectors with one seed, driven through the same reads and
// writes, reset at the same operation indices and sleep the same
// latencies; a different seed changes the pattern.
func TestFaultsDeterministic(t *testing.T) {
	const ops = 400
	a, b := faultTrace(t, 42, ops), faultTrace(t, 42, ops)
	resets := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d: %q vs %q", i, a[i], b[i])
		}
		if strings.HasSuffix(a[i], "reset") {
			resets++
		}
	}
	if resets == 0 || resets == ops {
		t.Fatalf("%d resets in %d ops: the trace exercises only one fault path", resets, ops)
	}
	if slices.Equal(a, faultTrace(t, 43, ops)) {
		t.Fatal("seeds 42 and 43 produced the same fault trace")
	}
}

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()
	t.Cleanup(func() { l.Close() })
	return l
}

// TestCleanPassThrough checks a zero-config injector is a transparent
// pipe: no faults, no errors, bytes intact.
func TestCleanPassThrough(t *testing.T) {
	in := New(Config{Seed: 1})
	l := echoServer(t)
	c, err := in.Dialer()(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := []byte("hello through the storm that is not there")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("echo mangled: %q", got)
	}
}

// TestInjectedResetIsTransient checks an injected reset surfaces as a
// *net.OpError the rpcsvc ladder classifies as transient — chaos must be
// indistinguishable from real transport weather.
func TestInjectedResetIsTransient(t *testing.T) {
	in := New(Config{Seed: 7, ResetProb: 1})
	l := echoServer(t)
	c, err := in.Dialer()(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Write([]byte("x"))
	if err == nil {
		t.Fatal("ResetProb=1 write succeeded")
	}
	if !rpcsvc.IsTransient(err) {
		t.Fatalf("injected reset not transient: %v (%T)", err, err)
	}
	var oe *net.OpError
	if !errors.As(err, &oe) {
		t.Fatalf("injected reset is %T, want *net.OpError", err)
	}
}

// TestLatencyInjection checks Latency actually delays traffic: a noisy
// round trip is measurably slower than a clean one.
func TestLatencyInjection(t *testing.T) {
	l := echoServer(t)
	in := New(Config{Seed: 5, Latency: 20 * time.Millisecond})
	c, err := in.Dialer()(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	const rounds = 5
	buf := make([]byte, 1)
	for i := 0; i < rounds; i++ {
		if _, err := c.Write([]byte("a")); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatal(err)
		}
	}
	// rounds round trips draw 2*rounds latencies uniform in [0, 20ms); the
	// chance the total stays under 5ms is negligible.
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("latency injection added nothing: %v for %d round trips", elapsed, rounds)
	}
}
