package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestMLPShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP([]int{5, 32, 16, 8}, ActLeakyReLU, rng)
	if m.InDim() != 5 || m.OutDim() != 8 {
		t.Fatalf("dims = %d,%d", m.InDim(), m.OutDim())
	}
	out := m.Forward(Zeros(7, 5))
	if out.Rows != 7 || out.Cols != 8 {
		t.Fatalf("forward shape %d×%d", out.Rows, out.Cols)
	}
	if got := len(m.Params()); got != 6 {
		t.Fatalf("param count = %d, want 6", got)
	}
}

func TestMLPGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP([]int{3, 4, 2}, ActTanh, rng)
	x := randTensor(rng, 2, 3)
	y := randTensor(rng, 2, 2)
	build := func() *Tensor { return MSE(m.Forward(x), y) }
	out := build()
	out.Backward(1)
	f := func() float64 { return build().Value() }
	for li, p := range m.Params() {
		for i := range p.Data {
			want := numericGrad(f, p, i)
			if math.Abs(p.Grad[i]-want) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("param %d elem %d: grad %.8f want %.8f", li, i, p.Grad[i], want)
			}
		}
	}
}

// TestMLPLearnsXOR trains a tiny network on XOR, which requires a working
// non-linearity and optimizer end to end.
func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP([]int{2, 8, 1}, ActTanh, rng)
	opt := NewAdam(0.02)
	x := New(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	y := New(4, 1, []float64{0, 1, 1, 0})
	var loss float64
	for it := 0; it < 800; it++ {
		ZeroGrads(m.Params())
		l := MSE(m.Forward(x), y)
		l.Backward(1)
		opt.Step(m.Params())
		loss = l.Value()
	}
	if loss > 0.02 {
		t.Fatalf("XOR loss after training = %v, want < 0.02", loss)
	}
}

func TestMLPLearnsMaxOfTwo(t *testing.T) {
	// The f/g composition argument of §5.1 relies on MLPs approximating max;
	// sanity-check that a small net fits max(a,b) on [-1,1]².
	rng := rand.New(rand.NewSource(4))
	m := NewMLP([]int{2, 16, 1}, ActLeakyReLU, rng)
	opt := NewAdam(0.01)
	n := 128
	xs := make([]float64, n*2)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		xs[2*i], xs[2*i+1] = a, b
		ys[i] = math.Max(a, b)
	}
	x := New(n, 2, xs)
	y := New(n, 1, ys)
	var loss float64
	for it := 0; it < 600; it++ {
		ZeroGrads(m.Params())
		l := MSE(m.Forward(x), y)
		l.Backward(1)
		opt.Step(m.Params())
		loss = l.Value()
	}
	if loss > 0.01 {
		t.Fatalf("max-regression loss = %v, want < 0.01", loss)
	}
}

func TestAdamReducesQuadratic(t *testing.T) {
	p := New(1, 1, []float64{5})
	p.MarkParam()
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		ZeroGrads([]*Tensor{p})
		Square(p).Backward(1)
		opt.Step([]*Tensor{p})
	}
	if math.Abs(p.Data[0]) > 1e-3 {
		t.Fatalf("Adam failed to minimise x²: x = %v", p.Data[0])
	}
}

func TestClipGradNorm(t *testing.T) {
	p := Vector([]float64{0, 0})
	p.MarkParam()
	p.Grad = []float64{3, 4}
	norm := ClipGradNorm([]*Tensor{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", norm)
	}
	if got := GradNorm([]*Tensor{p}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("post-clip norm = %v, want 1", got)
	}
	// Below the threshold gradients are untouched.
	p.Grad = []float64{0.3, 0.4}
	ClipGradNorm([]*Tensor{p}, 1)
	if p.Grad[0] != 0.3 || p.Grad[1] != 0.4 {
		t.Fatal("clip modified small gradient")
	}
}

func TestSaveLoadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m1 := NewMLP([]int{3, 4, 2}, ActTanh, rng)
	m2 := NewMLP([]int{3, 4, 2}, ActTanh, rand.New(rand.NewSource(99)))
	var buf bytes.Buffer
	if err := SaveParams(&buf, m1.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, m2.Params()); err != nil {
		t.Fatal(err)
	}
	x := randTensor(rng, 2, 3)
	o1 := m1.Forward(x)
	o2 := m2.Forward(x)
	for i := range o1.Data {
		if o1.Data[i] != o2.Data[i] {
			t.Fatalf("outputs differ after load: %v vs %v", o1.Data[i], o2.Data[i])
		}
	}
}

func TestLoadParamsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m1 := NewMLP([]int{3, 4, 2}, ActTanh, rng)
	m2 := NewMLP([]int{3, 5, 2}, ActTanh, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, m1.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, m2.Params()); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := Param(64, 32, rng)
	limit := math.Sqrt(6.0 / 96.0)
	for _, v := range p.Data {
		if v < -limit || v > limit {
			t.Fatalf("init value %v outside ±%v", v, limit)
		}
	}
	// Not all zero.
	var sum float64
	for _, v := range p.Data {
		sum += math.Abs(v)
	}
	if sum == 0 {
		t.Fatal("all-zero initialisation")
	}
}
