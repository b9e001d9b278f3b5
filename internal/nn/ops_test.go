package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// numericGrad computes d(f)/d(x[i]) by central differences.
func numericGrad(f func() float64, x *Tensor, i int) float64 {
	const h = 1e-6
	old := x.Data[i]
	x.Data[i] = old + h
	up := f()
	x.Data[i] = old - h
	down := f()
	x.Data[i] = old
	return (up - down) / (2 * h)
}

// checkGrads verifies autograd against numeric gradients for the scalar
// function produced by build over the given leaf tensors.
func checkGrads(t *testing.T, build func() *Tensor, leaves ...*Tensor) {
	t.Helper()
	for _, l := range leaves {
		l.MarkParam()
	}
	out := build()
	out.Backward(1)
	f := func() float64 { return build().Value() }
	for li, l := range leaves {
		for i := range l.Data {
			want := numericGrad(f, l, i)
			got := l.Grad[i]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("leaf %d elem %d: grad %.8f want %.8f", li, i, got, want)
			}
		}
	}
}

func randTensor(rng *rand.Rand, r, c int) *Tensor {
	t := Zeros(r, c)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

func TestMatMulForward(t *testing.T) {
	a := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := New(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor(rng, 3, 4)
	b := randTensor(rng, 4, 2)
	checkGrads(t, func() *Tensor { return Sum(Tanh(MatMul(a, b))) }, a, b)
}

func TestAddSubMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randTensor(rng, 2, 3)
	b := randTensor(rng, 2, 3)
	checkGrads(t, func() *Tensor { return Sum(Mul(Add(a, b), Sub(a, b))) }, a, b)
}

func TestAddRowGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randTensor(rng, 4, 3)
	b := randTensor(rng, 1, 3)
	checkGrads(t, func() *Tensor { return Sum(Sigmoid(AddRow(a, b))) }, a, b)
}

func TestActivationsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randTensor(rng, 3, 3)
	checkGrads(t, func() *Tensor { return Sum(LeakyReLU(a, 0.2)) }, a)
	a2 := randTensor(rng, 3, 3)
	checkGrads(t, func() *Tensor { return Sum(Tanh(a2)) }, a2)
	a3 := randTensor(rng, 3, 3)
	checkGrads(t, func() *Tensor { return Sum(Sigmoid(a3)) }, a3)
}

func TestSumRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randTensor(rng, 4, 3)
	checkGrads(t, func() *Tensor { return Sum(Square(SumRows(a))) }, a)
}

func TestConcatColsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randTensor(rng, 2, 3)
	b := randTensor(rng, 2, 2)
	c := randTensor(rng, 2, 1)
	checkGrads(t, func() *Tensor { return Sum(Tanh(ConcatCols(a, b, c))) }, a, b, c)
}

func TestGatherRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randTensor(rng, 4, 3)
	idx := []int{2, 0, 2, 3} // repeated index exercises scatter-add
	checkGrads(t, func() *Tensor { return Sum(Square(GatherRows(a, idx))) }, a)
}

func TestSegmentSumGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randTensor(rng, 5, 2)
	seg := []int{0, 1, 0, 2, 1}
	checkGrads(t, func() *Tensor { return Sum(Square(SegmentSum(a, seg, 3))) }, a)
}

// TestLogSoftmaxGrad checks the log-softmax backward SegmentPickLoss carries:
// one segment, unit pick weight, no entropy term.
func TestLogSoftmaxGrad(t *testing.T) {
	a := randTensor(rand.New(rand.NewSource(10)), 5, 1)
	checkGrads(t, func() *Tensor {
		l, _ := SegmentPickLoss(a, []int{0, 5}, []int{2}, []float64{1}, []float64{0})
		return l
	}, a)
}

func TestMSEGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randTensor(rng, 2, 2)
	b := randTensor(rng, 2, 2)
	checkGrads(t, func() *Tensor { return MSE(a, b) }, a, b)
}

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(vals [6]float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			// keep within a sane range to avoid float saturation
			vals[i] = math.Mod(v, 50)
		}
		lp := make([]float64, len(vals))
		LogSoftmaxInto(lp, vals[:])
		s := 0.0
		for _, l := range lp {
			v := math.Exp(l)
			if v < 0 || v > 1 {
				return false
			}
			s += v
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogSoftmaxStability(t *testing.T) {
	// very large logits must not overflow
	lp := make([]float64, 3)
	LogSoftmaxInto(lp, []float64{1e8, 1e8 + 1, -1e8})
	for _, v := range lp {
		if math.IsNaN(v) || v > 0 {
			t.Fatalf("unstable log softmax: %v", lp)
		}
	}
}

func TestBackwardSeedWeighting(t *testing.T) {
	// Backward(seed) must scale gradients identically to scaling the loss.
	rng := rand.New(rand.NewSource(13))
	a := randTensor(rng, 2, 2)
	a.MarkParam()
	out := Sum(Square(a))
	out.Backward(2.5)
	grads := make([]float64, len(a.Grad))
	copy(grads, a.Grad)

	a.ZeroGrad()
	out2 := Scale(Sum(Square(a)), 2.5)
	out2.Backward(1)
	for i := range grads {
		if math.Abs(grads[i]-a.Grad[i]) > 1e-12 {
			t.Fatalf("seed weighting mismatch at %d: %v vs %v", i, grads[i], a.Grad[i])
		}
	}
}

func TestGradAccumulation(t *testing.T) {
	a := New(1, 1, []float64{3})
	a.MarkParam()
	Square(a).Backward(1)
	Square(a).Backward(1)
	if math.Abs(a.Grad[0]-12) > 1e-12 { // d(x²)/dx = 6 each, accumulated twice
		t.Fatalf("accumulated grad = %v, want 12", a.Grad[0])
	}
}

func TestNoGradLeaves(t *testing.T) {
	a := New(1, 1, []float64{3}) // not marked as param
	out := Square(a)
	out.Backward(1)
	if a.Grad != nil {
		t.Fatal("gradient allocated for non-parameter leaf")
	}
}

func TestDeepChainBackward(t *testing.T) {
	// A deep sequential graph must not blow the stack (iterative topo sort).
	a := New(1, 1, []float64{0.5})
	a.MarkParam()
	h := a
	for i := 0; i < 5000; i++ {
		h = Tanh(h)
	}
	Sum(h).Backward(1)
	if a.Grad == nil {
		t.Fatal("no gradient after deep chain")
	}
}

func TestShapePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"matmul":  func() { MatMul(Zeros(2, 3), Zeros(2, 3)) },
		"add":     func() { Add(Zeros(2, 3), Zeros(3, 2)) },
		"addrow":  func() { AddRow(Zeros(2, 3), Zeros(1, 2)) },
		"concat":  func() { ConcatCols(Zeros(2, 3), Zeros(3, 3)) },
		"segment": func() { SegmentSum(Zeros(2, 3), []int{0}, 1) },
		"value":   func() { Zeros(2, 2).Value() },
		"new":     func() { New(2, 2, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestScatterRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randTensor(rng, 4, 3)
	b := randTensor(rng, 2, 3)
	idx := []int{1, 3}
	checkGrads(t, func() *Tensor { return Sum(Square(ScatterRows(a, idx, b))) }, a, b)
}

func TestScatterRowsForward(t *testing.T) {
	a := New(3, 2, []float64{1, 2, 3, 4, 5, 6})
	b := New(1, 2, []float64{9, 9})
	out := ScatterRows(a, []int{1}, b)
	want := []float64{1, 2, 9, 9, 5, 6}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("scatter[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
	// original untouched
	if a.Data[2] != 3 {
		t.Fatal("ScatterRows mutated source")
	}
}

func TestScatterRowsDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate index")
		}
	}()
	ScatterRows(Zeros(3, 2), []int{1, 1}, Zeros(2, 2))
}

func TestConcatRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randTensor(rng, 2, 3)
	b := randTensor(rng, 1, 3)
	checkGrads(t, func() *Tensor { return Sum(Tanh(ConcatRows(a, b))) }, a, b)
}
