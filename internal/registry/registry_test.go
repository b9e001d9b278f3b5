package registry

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/nn"
)

// testParams builds a small deterministic parameter set.
func testParams(seed int64) []*nn.Tensor {
	rng := rand.New(rand.NewSource(seed))
	params := make([]*nn.Tensor, 3)
	for i := range params {
		t := nn.Zeros(2, 3)
		for j := range t.Data {
			t.Data[j] = rng.NormFloat64()
		}
		params[i] = t
	}
	return params
}

func openTemp(t *testing.T) *Registry {
	t.Helper()
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPublishLoadRoundTrip(t *testing.T) {
	reg := openTemp(t)
	params := testParams(1)
	ver, err := reg.Publish("m", params, "first")
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 {
		t.Fatalf("first publish version = %d", ver)
	}
	ck, err := reg.Load(Ref{Name: "m", Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := testParams(99) // same shapes, different values
	if err := ck.LoadInto(got); err != nil {
		t.Fatal(err)
	}
	for i := range params {
		for j := range params[i].Data {
			if math.Float64bits(got[i].Data[j]) != math.Float64bits(params[i].Data[j]) {
				t.Fatalf("param %d[%d] differs after round trip", i, j)
			}
		}
	}
}

func TestLatestAndRollback(t *testing.T) {
	reg := openTemp(t)
	if _, err := reg.Publish("m", testParams(1), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("m", testParams(2), ""); err != nil {
		t.Fatal(err)
	}
	if v, err := reg.Latest("m"); err != nil || v != 2 {
		t.Fatalf("Latest = %d, %v; want 2", v, err)
	}
	// Version 0 resolves through LATEST.
	if ck, err := reg.Load(Ref{Name: "m"}); err != nil || ck.Version != 2 {
		t.Fatalf("Load(latest) = v%d, %v; want v2", ckVer(ck), err)
	}
	// Rollback is a flag flip; the next latest-load serves v1 again.
	if err := reg.SetLatest("m", 1); err != nil {
		t.Fatal(err)
	}
	if ck, err := reg.Load(Ref{Name: "m"}); err != nil || ck.Version != 1 {
		t.Fatalf("Load(latest) after rollback = v%d, %v; want v1", ckVer(ck), err)
	}
	// Rolling back to a version that does not exist is refused.
	if err := reg.SetLatest("m", 9); !errors.Is(err, ErrNotFound) {
		t.Fatalf("SetLatest(9) err = %v; want not-found", err)
	}
	// The next publish continues the version sequence past the rollback.
	if v, err := reg.Publish("m", testParams(3), ""); err != nil || v != 3 {
		t.Fatalf("publish after rollback = %d, %v; want 3", v, err)
	}
}

func ckVer(ck *Checkpoint) int {
	if ck == nil {
		return -1
	}
	return ck.Version
}

func TestNotFound(t *testing.T) {
	reg := openTemp(t)
	if _, err := reg.Load(Ref{Name: "ghost"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("load absent model: %v; want not-found", err)
	}
	if _, err := reg.Publish("m", testParams(1), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load(Ref{Name: "m", Version: 7}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("load absent version: %v; want not-found", err)
	}
}

func TestParseRef(t *testing.T) {
	good := map[string]Ref{
		"prod":      {Name: "prod"},
		"prod@3":    {Name: "prod", Version: 3},
		"a.b_c-1@2": {Name: "a.b_c-1", Version: 2},
	}
	for s, want := range good {
		got, err := ParseRef(s)
		if err != nil || got != want {
			t.Fatalf("ParseRef(%q) = %+v, %v; want %+v", s, got, err, want)
		}
	}
	for _, s := range []string{"", "@1", "Prod", "m@", "m@0", "m@-1", "m@x", "a/b"} {
		if _, err := ParseRef(s); err == nil {
			t.Fatalf("ParseRef(%q) accepted", s)
		}
	}
}

// TestCorruptionDetected flips or truncates checkpoint bytes on disk and
// requires every mutation to fail the load with the typed corrupt error —
// never a silent load of wrong weights.
func TestCorruptionDetected(t *testing.T) {
	reg := openTemp(t)
	if _, err := reg.Publish("m", testParams(1), ""); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(reg.Root(), "m", "v1.ckpt")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Bit flips across the file: header, identity fields, payload.
	for _, off := range []int{0, 5, len(orig) / 2, len(orig) - 1} {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Load(Ref{Name: "m", Version: 1}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: err = %v; want corrupt", off, err)
		}
	}
	// Truncations, including an empty file.
	for _, n := range []int{0, 4, len(orig) / 2, len(orig) - 1} {
		if err := os.WriteFile(path, orig[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Load(Ref{Name: "m", Version: 1}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncate to %d: err = %v; want corrupt", n, err)
		}
	}
	restore()

	// A valid checkpoint renamed into the wrong slot is corrupt too: the
	// identity inside the file disagrees with the slot it was loaded from.
	if err := os.WriteFile(filepath.Join(reg.Root(), "m", "v2.ckpt"), orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load(Ref{Name: "m", Version: 2}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong-slot load: err = %v; want corrupt", err)
	}
}

// TestPublishBitwiseReproducible pins the checkpoint-byte determinism the
// online-loop test builds on: publishing identical parameters into fresh
// registries yields bitwise-identical checkpoint files (timestamps live
// only in the meta sidecar).
// TestConcurrentPublishDistinctVersions pins the package's concurrency
// promise: publishes of one name from many goroutines each get their own
// version, and every version loads back with its own publisher's
// parameters — none silently overwrites another.
func TestConcurrentPublishDistinctVersions(t *testing.T) {
	const goroutines, each = 8, 5
	reg := openTemp(t)
	var mu sync.Mutex
	seedOf := map[int]int64{} // version -> seed of the parameters published as it
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seed := int64(100*g + i)
				ver, err := reg.Publish("m", testParams(seed), "")
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if prev, dup := seedOf[ver]; dup {
					t.Errorf("version %d returned to two publishes (seeds %d and %d)", ver, prev, seed)
				}
				seedOf[ver] = seed
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if len(seedOf) != goroutines*each {
		t.Fatalf("%d distinct versions from %d publishes", len(seedOf), goroutines*each)
	}
	for ver, seed := range seedOf {
		ck, err := reg.Load(Ref{Name: "m", Version: ver})
		if err != nil {
			t.Fatal(err)
		}
		got, want := testParams(-1), testParams(seed)
		if err := ck.LoadInto(got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i].Data {
				if math.Float64bits(got[i].Data[j]) != math.Float64bits(want[i].Data[j]) {
					t.Fatalf("v%d holds parameters other than its publisher's (seed %d)", ver, seed)
				}
			}
		}
	}
	if v, err := reg.Latest("m"); err != nil || v != goroutines*each {
		t.Fatalf("LATEST = %d (%v), want %d", v, err, goroutines*each)
	}
}

func TestPublishBitwiseReproducible(t *testing.T) {
	var files [][]byte
	for i := 0; i < 2; i++ {
		reg := openTemp(t)
		if _, err := reg.Publish("m", testParams(42), "note varies: run "+string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(reg.Root(), "m", "v1.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("checkpoint bytes differ across identical publishes")
	}
}

// FuzzCheckpoint feeds arbitrary bytes (seeded with valid, truncated and
// bit-flipped checkpoint images) to the checkpoint reader: it must never
// panic, and any accepted input must carry a verified identity.
func FuzzCheckpoint(f *testing.F) {
	valid, err := EncodeCheckpoint("m", 1, testParams(7))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(ckptMagic)])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-3] ^= 1
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("decima-ckpt/1\nnot a gob"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := ReadCheckpoint(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped checkpoint error: %v", err)
			}
			return
		}
		// Accepted: the declared identity must verify against the payload —
		// ReadCheckpoint's contract is that a nil error means exactly the
		// published bytes.
		if ck.Version <= 0 || !validName(ck.Name) {
			t.Fatalf("accepted invalid identity %q@%d", ck.Name, ck.Version)
		}
		if checksum(ck.Name, ck.Version, ck.payload) != ck.Sum {
			t.Fatal("accepted checkpoint with unverified checksum")
		}
	})
}
