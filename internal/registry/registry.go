// Package registry is the model registry closing the training↔serving
// loop: named, versioned, checksummed parameter checkpoints on disk.
//
// The layout is declarative — the directory tree *is* the registry state,
// no database, no index file to corrupt (the idiom of declarative
// lifecycle stores like dagu's DAG directory):
//
//	<root>/
//	  <name>/
//	    v1.ckpt        checkpoint: magic header + gob{name, version, sum, payload}
//	    v1.meta.json   sidecar (created time, note) — informational only,
//	                   never read on the load path, never checksummed
//	    v2.ckpt
//	    LATEST         the current serving version ("2\n"); rollback is
//	                   rewriting this one file (or pinning name@ver)
//
// Every write is temp-file + rename, so a crashed publish leaves either
// the old state or the new state, never a torn checkpoint. Every load
// verifies a SHA-256 over (name, version, payload): truncated or
// bit-flipped files fail with ErrCorrupt — typed, never a silent load of
// wrong weights.
package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/nn"
)

// ckptMagic heads every checkpoint file. Version-suffixed so a future
// format change fails loudly instead of misdecoding.
const ckptMagic = "decima-ckpt/1\n"

// Typed errors. Like the rpcsvc wire errors, each carries a stable marker
// substring so classification survives fmt-wrapping.
const (
	corruptMarker  = "[registry:corrupt]"
	notFoundMarker = "[registry:not-found]"
	badRefMarker   = "[registry:bad-ref]"
)

// ErrCorrupt reports a checkpoint file that exists but cannot be trusted:
// bad magic, undecodable gob, or a checksum mismatch (truncation, bit
// flips, torn writes). A corrupt checkpoint never loads silently.
var ErrCorrupt = errors.New("checkpoint corrupt " + corruptMarker)

// ErrNotFound reports a model name or version that is not in the registry.
var ErrNotFound = errors.New("model not found " + notFoundMarker)

// ErrBadRef reports an unparseable model reference (want "name" or
// "name@version", name from [a-z0-9._-], version a positive integer).
var ErrBadRef = errors.New("bad model reference " + badRefMarker)

// IsCorrupt reports whether err means a checkpoint failed verification.
func IsCorrupt(err error) bool {
	return err != nil && (errors.Is(err, ErrCorrupt) || strings.Contains(err.Error(), corruptMarker))
}

// IsNotFound reports whether err means the name/version is absent.
func IsNotFound(err error) bool {
	return err != nil && (errors.Is(err, ErrNotFound) || strings.Contains(err.Error(), notFoundMarker))
}

// Ref names a model in the registry. Version 0 means "whatever LATEST
// points at" — the rollback flag flip resolves through it.
type Ref struct {
	Name    string
	Version int
}

func (r Ref) String() string {
	if r.Version == 0 {
		return r.Name
	}
	return fmt.Sprintf("%s@%d", r.Name, r.Version)
}

// ParseRef parses "name" or "name@version".
func ParseRef(s string) (Ref, error) {
	name, verStr, pinned := strings.Cut(s, "@")
	if !validName(name) {
		return Ref{}, fmt.Errorf("%w: %q", ErrBadRef, s)
	}
	if !pinned {
		return Ref{Name: name}, nil
	}
	ver, err := strconv.Atoi(verStr)
	if err != nil || ver <= 0 {
		return Ref{}, fmt.Errorf("%w: %q (version must be a positive integer)", ErrBadRef, s)
	}
	return Ref{Name: name, Version: ver}, nil
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, c := range name {
		ok := c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '.' || c == '_' || c == '-'
		if !ok {
			return false
		}
	}
	return true
}

// Registry is a directory of model checkpoints. Concurrent use from one
// process is safe (publishes serialise on temp+rename; loads only read).
type Registry struct {
	root string
}

// Open returns a registry rooted at dir, creating it if needed.
func Open(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Registry{root: dir}, nil
}

// Root returns the registry's root directory.
func (r *Registry) Root() string { return r.root }

func (r *Registry) modelDir(name string) string { return filepath.Join(r.root, name) }

func (r *Registry) ckptPath(name string, ver int) string {
	return filepath.Join(r.modelDir(name), fmt.Sprintf("v%d.ckpt", ver))
}

// Meta is the informational sidecar written next to each checkpoint. It is
// never read on the load path and never checksummed, so publishes stay
// bitwise reproducible (no timestamp inside the checkpoint itself).
type Meta struct {
	Created time.Time `json:"created"`
	Note    string    `json:"note,omitempty"`
}

// ckptFile is the gob body of a checkpoint, after the magic header.
type ckptFile struct {
	Name    string
	Version int
	Sum     [sha256.Size]byte
	Payload []byte // nn.SaveParams bytes
}

// checksum binds the payload to its identity: flipping the version or name
// fields is as detectable as flipping a weight byte.
func checksum(name string, version int, payload []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(name))
	var vb [8]byte
	binary.LittleEndian.PutUint64(vb[:], uint64(version))
	h.Write(vb[:])
	h.Write(payload)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// Checkpoint is one loaded (and verified) model version.
type Checkpoint struct {
	Name    string
	Version int
	Sum     [sha256.Size]byte
	payload []byte
}

// LoadInto copies the checkpoint's parameters into params (shape-checked).
func (c *Checkpoint) LoadInto(params []*nn.Tensor) error {
	return nn.LoadParams(bytes.NewReader(c.payload), params)
}

// EncodeCheckpoint serialises params as a checkpoint file image for
// (name, version).
func EncodeCheckpoint(name string, version int, params []*nn.Tensor) ([]byte, error) {
	var payload bytes.Buffer
	if err := nn.SaveParams(&payload, params); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteString(ckptMagic)
	f := ckptFile{Name: name, Version: version, Sum: checksum(name, version, payload.Bytes()), Payload: payload.Bytes()}
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReadCheckpoint decodes and verifies a checkpoint file image. Any
// deviation — missing magic, undecodable gob, checksum mismatch — returns
// ErrCorrupt; a nil error guarantees the payload bytes are exactly the
// published ones.
func ReadCheckpoint(data []byte) (*Checkpoint, error) {
	rest, ok := bytes.CutPrefix(data, []byte(ckptMagic))
	if !ok {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	var f ckptFile
	if err := gob.NewDecoder(bytes.NewReader(rest)).Decode(&f); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if f.Version <= 0 || !validName(f.Name) {
		return nil, fmt.Errorf("%w: invalid identity %q@%d", ErrCorrupt, f.Name, f.Version)
	}
	if checksum(f.Name, f.Version, f.Payload) != f.Sum {
		return nil, fmt.Errorf("%w: checksum mismatch for %s@%d", ErrCorrupt, f.Name, f.Version)
	}
	return &Checkpoint{Name: f.Name, Version: f.Version, Sum: f.Sum, payload: f.Payload}, nil
}

// Publish writes params as the next version of name, makes it LATEST, and
// returns the new version number. The checkpoint bytes are a pure function
// of (name, version, params) — timestamps live only in the meta sidecar —
// so republishing identical parameters is bitwise reproducible.
func (r *Registry) Publish(name string, params []*nn.Tensor, note string) (int, error) {
	if !validName(name) {
		return 0, fmt.Errorf("%w: %q", ErrBadRef, name)
	}
	dir := r.modelDir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	vers, err := r.Versions(name)
	if err != nil {
		return 0, err
	}
	ver := 1
	if n := len(vers); n > 0 {
		ver = vers[n-1] + 1
	}
	data, err := EncodeCheckpoint(name, ver, params)
	if err != nil {
		return 0, err
	}
	if err := writeAtomic(r.ckptPath(name, ver), data); err != nil {
		return 0, err
	}
	meta, _ := json.MarshalIndent(Meta{Created: time.Now().UTC(), Note: note}, "", "  ")
	if err := writeAtomic(filepath.Join(dir, fmt.Sprintf("v%d.meta.json", ver)), append(meta, '\n')); err != nil {
		return 0, err
	}
	if err := r.SetLatest(name, ver); err != nil {
		return 0, err
	}
	return ver, nil
}

// Versions lists the published versions of name, ascending. A name with no
// directory has no versions (nil, nil) — absence is not an error here so
// Publish can bootstrap v1.
func (r *Registry) Versions(name string) ([]int, error) {
	ents, err := os.ReadDir(r.modelDir(name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var vers []int
	for _, e := range ents {
		n := e.Name()
		if !strings.HasPrefix(n, "v") || !strings.HasSuffix(n, ".ckpt") {
			continue
		}
		v, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(n, "v"), ".ckpt"))
		if err == nil && v > 0 {
			vers = append(vers, v)
		}
	}
	sort.Ints(vers)
	return vers, nil
}

// Latest returns the version LATEST points at. If the pointer file is
// missing (pre-crash publish, hand-built registry) it falls back to the
// highest published version.
func (r *Registry) Latest(name string) (int, error) {
	data, err := os.ReadFile(filepath.Join(r.modelDir(name), "LATEST"))
	if err == nil {
		v, convErr := strconv.Atoi(strings.TrimSpace(string(data)))
		if convErr != nil || v <= 0 {
			return 0, fmt.Errorf("%w: LATEST for %q is %q", ErrCorrupt, name, strings.TrimSpace(string(data)))
		}
		return v, nil
	}
	vers, verr := r.Versions(name)
	if verr != nil {
		return 0, verr
	}
	if len(vers) == 0 {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return vers[len(vers)-1], nil
}

// SetLatest points LATEST at an existing version — this one-line file flip
// is the whole rollback (and roll-forward) mechanism.
func (r *Registry) SetLatest(name string, ver int) error {
	if _, err := os.Stat(r.ckptPath(name, ver)); err != nil {
		return fmt.Errorf("%w: %s@%d", ErrNotFound, name, ver)
	}
	return writeAtomic(filepath.Join(r.modelDir(name), "LATEST"), []byte(strconv.Itoa(ver)+"\n"))
}

// Load reads and verifies the checkpoint ref names (Version 0 = LATEST).
// The returned checkpoint's identity is double-checked against the ref, so
// a file renamed into the wrong slot is rejected as corrupt.
func (r *Registry) Load(ref Ref) (*Checkpoint, error) {
	ver := ref.Version
	if ver == 0 {
		var err error
		if ver, err = r.Latest(ref.Name); err != nil {
			return nil, err
		}
	}
	data, err := os.ReadFile(r.ckptPath(ref.Name, ver))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s@%d", ErrNotFound, ref.Name, ver)
	}
	if err != nil {
		return nil, err
	}
	ck, err := ReadCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("%s@%d: %w", ref.Name, ver, err)
	}
	if ck.Name != ref.Name || ck.Version != ver {
		return nil, fmt.Errorf("%w: file at %s@%d claims to be %s@%d", ErrCorrupt, ref.Name, ver, ck.Name, ck.Version)
	}
	return ck, nil
}

// writeAtomic writes data via a temp file + rename in the target's
// directory, so readers never observe a torn file.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
