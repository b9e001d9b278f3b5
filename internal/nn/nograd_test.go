package nn

import (
	"math"
	"math/rand"
	"testing"
)

// sameData asserts two tensors carry bit-identical values.
func sameData(t *testing.T, name string, a, b *Tensor) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %d×%d vs %d×%d", name, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, a.Data[i], b.Data[i])
		}
	}
}

// TestInferenceOpsBitIdentical checks that every op computes bit-identical
// values with and without the no-grad mode, and that inference-mode results
// are fully detached (no grads, no graph).
func TestInferenceOpsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor(rng, 5, 7)
	a.MarkParam() // make the tracked path actually build a graph
	b := randTensor(rng, 7, 4)
	b.MarkParam()
	c := randTensor(rng, 5, 7)
	row := randTensor(rng, 1, 7)
	seg := []int{0, 1, 0, 2, 1}
	idx := []int{3, 0, 2}
	mlp := NewMLP([]int{14, 4, 2}, ActLeakyReLU, rng)

	cases := map[string]func() *Tensor{
		"MatMul":     func() *Tensor { return MatMul(a, b) },
		"Add":        func() *Tensor { return Add(a, c) },
		"AddRow":     func() *Tensor { return AddRow(a, row) },
		"Sub":        func() *Tensor { return Sub(a, c) },
		"Mul":        func() *Tensor { return Mul(a, c) },
		"Scale":      func() *Tensor { return Scale(a, 1.7) },
		"LeakyReLU":  func() *Tensor { return LeakyReLU(a, 0.2) },
		"Tanh":       func() *Tensor { return Tanh(a) },
		"Sigmoid":    func() *Tensor { return Sigmoid(a) },
		"Sum":        func() *Tensor { return Sum(a) },
		"Mean":       func() *Tensor { return Mean(a) },
		"SumRows":    func() *Tensor { return SumRows(a) },
		"ConcatCols": func() *Tensor { return ConcatCols(a, c) },
		"ConcatRows": func() *Tensor { return ConcatRows(a, c) },
		"GatherRows": func() *Tensor { return GatherRows(a, idx) },
		"SegmentSum": func() *Tensor { return SegmentSum(a, seg, 3) },
		"ScatterRows": func() *Tensor {
			return ScatterRows(a, []int{1, 3}, randTensorSeeded(9, 2, 7))
		},
		"AddRowsInPlace": func() *Tensor {
			e := a.Clone() // written in place
			e.MarkParam()
			return AddRowsInPlace(e, []int{1, 3}, randTensorSeeded(9, 2, 7))
		},
		"ForwardRows": func() *Tensor { return mlp.ForwardRows(Rows{a, idx}, Rows{c, idx}) },
	}
	for name, op := range cases {
		tracked := op()
		var inferred *Tensor
		Inference(func() { inferred = op() })
		sameData(t, name, tracked, inferred)
		if inferred.RequiresGrad() || inferred.parents != nil || inferred.backFn != nil {
			t.Fatalf("%s: inference result not detached", name)
		}
		if !tracked.RequiresGrad() {
			t.Fatalf("%s: tracked result lost requiresGrad", name)
		}
	}
}

// randTensorSeeded builds a deterministic tensor independent of the shared
// rng stream, so tracked and inference invocations of a case see the same
// values.
func randTensorSeeded(seed int64, r, c int) *Tensor {
	return randTensor(rand.New(rand.NewSource(seed)), r, c)
}

// TestMLPForwardInferenceBitIdentical checks the fused no-grad MLP forward
// against the tracked op-by-op forward for every activation.
func TestMLPForwardInferenceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Scratch
	for _, act := range []Activation{ActLeakyReLU, ActTanh, ActSigmoid, ActIdentity} {
		m := NewMLP([]int{13, 32, 16, 4}, act, rng)
		for trial := 0; trial < 5; trial++ {
			x := randTensor(rng, 1+rng.Intn(40), 13)
			tracked := m.Forward(x)
			s.Reset()
			fused := m.ForwardInference(x, &s)
			sameData(t, "mlp", tracked, fused)
			if fused.RequiresGrad() {
				t.Fatal("fused forward requires grad")
			}
		}
	}
}

// TestScratchArena checks zeroing, reuse and growth of the arena.
func TestScratchArena(t *testing.T) {
	var s Scratch
	a := s.Alloc(10)
	for i := range a {
		a[i] = float64(i + 1)
	}
	b := s.Alloc(100000) // force a slab beyond the first
	if len(b) != 100000 {
		t.Fatalf("alloc length %d", len(b))
	}
	for i := range b {
		b[i] = 7
	}
	s.Reset()
	c := s.Alloc(10)
	for i, v := range c {
		if v != 0 {
			t.Fatalf("reused buffer not zeroed at %d: %v", i, v)
		}
	}
	// The recycled buffer aliases the first allocation's memory.
	if &c[0] != &a[0] {
		t.Fatal("Reset did not recycle the arena")
	}
	// Appending to an Alloc'd slice must not clobber the next allocation.
	d := s.Alloc(4)
	e := s.Alloc(4)
	d = append(d, 1)
	if e[0] != 0 || math.IsNaN(e[0]) {
		t.Fatal("append to arena slice overflowed into the next buffer")
	}
}

// TestLogSoftmaxInto checks the softmax kernel against the plain definition.
func TestLogSoftmaxInto(t *testing.T) {
	x := randTensor(rand.New(rand.NewSource(4)), 1, 9).Data
	out := make([]float64, 9)
	LogSoftmaxInto(out, x)
	var z float64
	for _, v := range x {
		z += math.Exp(v)
	}
	for i, v := range x {
		if want := v - math.Log(z); math.Abs(out[i]-want) > 1e-12 {
			t.Fatalf("element %d: %v, want %v", i, out[i], want)
		}
	}
}

// TestForwardInferenceSharedPrefixBitIdentical pins the shared-prefix
// forward to the fused forward (and so the tracked one) over the materialised
// rows [prefix, last[i]], for every activation, one- to three-layer networks
// and first-layer widths on both sides of the kernel's eight-column tile.
func TestForwardInferenceSharedPrefixBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s Scratch
	for _, act := range []Activation{ActLeakyReLU, ActTanh, ActSigmoid, ActIdentity} {
		for _, sizes := range [][]int{{17, 16, 8, 1}, {25, 32, 1}, {9, 5, 3}, {6, 1}, {1, 11, 2}} {
			m := NewMLP(sizes, act, rng)
			for trial := 0; trial < 5; trial++ {
				n, k := 1+rng.Intn(50), sizes[0]
				prefix := randTensor(rng, 1, k-1).Data
				last := randTensor(rng, 1, n).Data
				rows := Zeros(n, k)
				for i := 0; i < n; i++ {
					copy(rows.Data[i*k:], prefix)
					rows.Data[i*k+k-1] = last[i]
				}
				s.Reset()
				sameData(t, "shared prefix vs fused", m.ForwardInference(rows, &s), m.ForwardInferenceSharedPrefix(prefix, last, &s))
				sameData(t, "shared prefix vs tracked", m.Forward(rows), m.ForwardInferenceSharedPrefix(prefix, last, &s))
			}
		}
	}
}

// TestScratchTensorsAreArenaOwned checks the header pool: tensors handed out
// stay distinct and valid while the pool grows past a chunk, and Reset
// recycles headers as it does buffers, so a warm arena allocates nothing.
func TestScratchTensorsAreArenaOwned(t *testing.T) {
	var s Scratch
	round := func() []*Tensor {
		s.Reset()
		ts := make([]*Tensor, 3*hdrChunk)
		for i := range ts {
			ts[i] = s.AllocTensor(1, 2)
			ts[i].Data[0] = float64(i)
		}
		return ts
	}
	first := round()
	for i, x := range first {
		if x.Rows != 1 || x.Cols != 2 || x.Data[0] != float64(i) {
			t.Fatalf("tensor %d clobbered while the pool grew: %+v", i, x)
		}
	}
	if second := round(); second[0] != first[0] || second[len(second)-1] != first[len(first)-1] {
		t.Fatal("Reset did not recycle the tensor headers")
	}
	m := NewMLP([]int{6, 16, 8, 1}, ActLeakyReLU, rand.New(rand.NewSource(1)))
	x := randTensor(rand.New(rand.NewSource(2)), 20, 6)
	if n := testing.AllocsPerRun(50, func() { s.Reset(); m.ForwardInference(x, &s) }); n != 0 {
		t.Fatalf("warm fused forward allocates %v times", n)
	}
}
