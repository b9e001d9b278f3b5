package nn

import "math"

// ZeroGrads clears the gradient buffers of all given tensors.
func ZeroGrads(params []*Tensor) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// GradClip is the global gradient-norm bound the offline (internal/rl) and
// online (internal/online) trainers clip to before each Adam step.
const GradClip = 10

// ClipGradNorm rescales the gradients of params so their global L2 norm does
// not exceed maxNorm, returning the pre-clip norm. REINFORCE gradients on
// long episodes occasionally spike; clipping keeps Adam stable.
func ClipGradNorm(params []*Tensor, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		s := maxNorm / norm
		for _, p := range params {
			for i := range p.Grad {
				p.Grad[i] *= s
			}
		}
	}
	return norm
}

// GradNorm returns the global L2 norm of the accumulated gradients.
func GradNorm(params []*Tensor) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad {
			sq += g * g
		}
	}
	return math.Sqrt(sq)
}

// Adam implements the Adam optimizer (Kingma & Ba, 2015), the optimizer the
// paper trains Decima with (Appendix C, α = 1e-3).
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	t int
	m map[*Tensor][]float64
	v map[*Tensor][]float64
}

// NewAdam returns an Adam optimizer with standard betas (0.9, 0.999).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Tensor][]float64),
		v: make(map[*Tensor][]float64),
	}
}

// Step applies one Adam update with bias correction.
func (a *Adam) Step(params []*Tensor) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		m := a.m[p]
		v := a.v[p]
		if m == nil {
			m = make([]float64, len(p.Data))
			v = make([]float64, len(p.Data))
			a.m[p] = m
			a.v[p] = v
		}
		for i, g := range p.Grad {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mh := m[i] / c1
			vh := v[i] / c2
			p.Data[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}
