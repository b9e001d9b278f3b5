package workload

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
)

// Golden digests captured at 6101f21, the parent of the per-(query, size)
// template table, when TPCHJob still rebuilt every job from its seeded rng
// sources. Generation must stay bit-identical: a template cache that shifts
// one draw, drops a field or shares state between instances moves a digest.
const (
	goldenTemplates = 0x344c455474cc431a // all 132 TPCHJob(q, s)
	goldenBatch     = 0x293b704efc97d663 // Batch(seed 1, 500)
	goldenPoisson   = 0xaf7f2762cb45d3e8 // Poisson(seed 2, 500, IATForLoad(0.7, 50))
	goldenIAT       = 0x404c6a0ea0ea0ea1 // math.Float64bits(IATForLoad(0.7, 50))
)

// genDigest is an FNV-1a hash over 64-bit words and strings.
type genDigest struct{ hash.Hash64 }

func (d genDigest) add(words ...uint64) {
	for _, w := range words {
		d.Write(binary.LittleEndian.AppendUint64(nil, w))
	}
}

func (d genDigest) str(s string) {
	d.add(uint64(len(s)))
	d.Write([]byte(s))
}

func (d genDigest) ints(xs []int) {
	d.add(uint64(len(xs)))
	for _, x := range xs {
		d.add(uint64(x))
	}
}

// job hashes every field of j: identity, arrival, each stage's fields and
// adjacency, and the inflation curve over parallelism 1…100.
func (d genDigest) job(j *dag.Job) {
	d.add(uint64(j.ID), math.Float64bits(j.Arrival))
	d.str(j.Name)
	d.add(uint64(len(j.Stages)))
	for _, s := range j.Stages {
		d.add(uint64(s.ID), uint64(s.NumTasks), math.Float64bits(s.TaskDuration),
			math.Float64bits(s.ShuffleMB), math.Float64bits(s.MemReq), math.Float64bits(s.CPUReq))
		d.str(s.Name)
		d.ints(s.Parents)
		d.ints(s.Children)
	}
	for p := 1; p <= 100; p++ {
		d.add(math.Float64bits(j.Inflation(p)))
	}
}

func digestJobs(jobs []*dag.Job) uint64 {
	d := genDigest{fnv.New64a()}
	d.add(uint64(len(jobs)))
	for _, j := range jobs {
		d.job(j)
	}
	return d.Sum64()
}

func TestGeneratedWorkloadGolden(t *testing.T) {
	var templates []*dag.Job
	for q := 1; q <= NumQueries; q++ {
		for _, s := range Sizes {
			templates = append(templates, TPCHJob(q, s))
		}
	}
	iat := IATForLoad(0.7, 50)
	got := []struct {
		name      string
		got, want uint64
	}{
		{"templates", digestJobs(templates), goldenTemplates},
		{"batch", digestJobs(Batch(rand.New(rand.NewSource(1)), 500)), goldenBatch},
		{"poisson", digestJobs(Poisson(rand.New(rand.NewSource(2)), 500, iat)), goldenPoisson},
		{"iat", math.Float64bits(iat), goldenIAT},
	}
	for _, g := range got {
		if g.got != g.want {
			t.Errorf("%s digest = %#016x, want %#016x", g.name, g.got, g.want)
		}
	}
}
