package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestSegmentPickLoss pins the fused node's per-segment values to the plain
// definitions (log-softmax of the picked element, −Σ p·log p) and its
// hand-written backward to central finite differences.
func TestSegmentPickLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		start := []int{0}
		for s := 0; s < 3; s++ {
			start = append(start, start[s]+1+rng.Intn(6))
		}
		scores := randTensor(rng, start[3], 1)
		picks := make([]int, 3)
		wPick := make([]float64, 3)
		wEnt := make([]float64, 3)
		for s := range picks {
			picks[s] = rng.Intn(start[s+1] - start[s])
			wPick[s] = rng.NormFloat64()
			if trial%2 == 0 {
				wEnt[s] = rng.Float64()
			}
		}
		loss, vals := SegmentPickLoss(scores, start, picks, wPick, wEnt)
		var want float64
		for s, v := range vals {
			seg := scores.Data[start[s]:start[s+1]]
			var z, ent float64
			for _, x := range seg {
				z += math.Exp(x)
			}
			for _, x := range seg {
				ent -= math.Exp(x) / z * (x - math.Log(z))
			}
			logp := seg[picks[s]] - math.Log(z)
			if math.Abs(v.LogProb-logp) > 1e-12 || math.Abs(v.Entropy-ent) > 1e-12 {
				t.Fatalf("trial %d seg %d: (logp, entropy) = (%v, %v), want (%v, %v)", trial, s, v.LogProb, v.Entropy, logp, ent)
			}
			want += wPick[s]*logp + wEnt[s]*ent
		}
		if math.Abs(loss.Value()-want) > 1e-9 {
			t.Fatalf("trial %d: loss %v, want %v", trial, loss.Value(), want)
		}
		checkGrads(t, func() *Tensor {
			l, _ := SegmentPickLoss(scores, start, picks, wPick, wEnt)
			return l
		}, scores)
	}
}

func TestGatherElems(t *testing.T) {
	a := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	a.MarkParam()
	out := GatherElems(a, []int{5, 0, 0, 4})
	want := []float64{6, 1, 1, 5}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("elem %d = %v, want %v", i, out.Data[i], v)
		}
	}
	if out.Rows != 4 || out.Cols != 1 {
		t.Fatalf("shape %d×%d", out.Rows, out.Cols)
	}
	// Scatter-add backward: repeated indices accumulate.
	s := Sum(out)
	s.Backward(2)
	wantG := []float64{4, 0, 0, 0, 2, 2}
	for i, v := range wantG {
		if a.Grad[i] != v {
			t.Fatalf("grad %d = %v, want %v", i, a.Grad[i], v)
		}
	}
}

// TestMatMulBackwardRowStreaming pins the restructured dB kernel (row-major
// streaming accumulation) to the mathematically transparent column-major
// definition dB = Aᵀ·G.
func TestMatMulBackwardRowStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randTensor(rng, 17, 5)
	a.Data[3] = 0 // exercise the zero-skip
	w := randTensor(rng, 5, 4)
	w.MarkParam()
	out := Sum(MatMul(a, w))
	out.Backward(1)
	// Reference: dB[p][j] = Σ_i A[i][p]·G[i][j] with G all-ones.
	for p := 0; p < 5; p++ {
		for j := 0; j < 4; j++ {
			var want float64
			for i := 0; i < 17; i++ {
				want += a.Data[i*5+p]
			}
			got := w.Grad[p*4+j]
			if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("dB[%d][%d] = %v, want %v", p, j, got, want)
			}
		}
	}
}
