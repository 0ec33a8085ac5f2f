// Package cpd holds the machinery shared by every CP-decomposition
// algorithm in this repository: the factor-matrix model ⟦λ; A⁽¹⁾,…,A⁽ᴹ⁾⟧,
// sparse MTTKRP, and the sparse fitness computation
// 1 − ‖X − X̃‖_F / ‖X‖_F used throughout the paper's evaluation.
package cpd

import (
	"fmt"
	"math"

	"slicenstitch/internal/mat"
	"slicenstitch/internal/tensor"
)

// Rand is the randomness NewRandomModel needs. Both internal/rng.RNG and
// math/rand.Rand satisfy it; state-bearing callers must pass the former
// (its state serializes into checkpoints), while the one-shot ALS warm
// start may keep a seeded math/rand source.
type Rand interface {
	Float64() float64
}

// Model is a rank-R CP model of an M-mode tensor: factor matrices
// A⁽ᵐ⁾ ∈ R^{N_m×R} and column weights λ ∈ R^R, approximating
// X ≈ Σ_r λ_r a⁽¹⁾_r ∘ ⋯ ∘ a⁽ᴹ⁾_r (Eq. (1) of the paper).
//
// Algorithms that skip column normalization (SNS_VEC, SNS_RND, SNS⁺) keep
// Lambda at all ones and fold the scale into the factors.
type Model struct {
	// Factors holds one matrix per mode, each with R columns.
	Factors []*mat.Dense
	// Lambda holds the R column weights.
	Lambda []float64
}

// NewModel allocates a zero model for the given mode sizes and rank.
func NewModel(shape []int, rank int) *Model {
	if rank <= 0 {
		panic(fmt.Sprintf("cpd: rank %d must be positive", rank))
	}
	m := &Model{Lambda: make([]float64, rank)}
	for r := range m.Lambda {
		m.Lambda[r] = 1
	}
	for _, n := range shape {
		m.Factors = append(m.Factors, mat.New(n, rank))
	}
	return m
}

// NewRandomModel allocates a model with entries drawn uniformly from [0,1),
// the standard CP-ALS initialization.
func NewRandomModel(shape []int, rank int, rng Rand) *Model {
	m := NewModel(shape, rank)
	for _, f := range m.Factors {
		d := f.Data()
		for i := range d {
			d[i] = rng.Float64()
		}
	}
	return m
}

// Rank returns R.
func (m *Model) Rank() int { return len(m.Lambda) }

// Order returns the number of modes M.
func (m *Model) Order() int { return len(m.Factors) }

// Shape returns the mode sizes.
func (m *Model) Shape() []int {
	out := make([]int, len(m.Factors))
	for i, f := range m.Factors {
		out[i] = f.Rows()
	}
	return out
}

// Clone returns a deep copy.
func (m *Model) Clone() *Model {
	out := &Model{Lambda: mat.CloneVec(m.Lambda)}
	for _, f := range m.Factors {
		out.Factors = append(out.Factors, f.Clone())
	}
	return out
}

// Predict evaluates the model at one coordinate: Σ_r λ_r Π_m A⁽ᵐ⁾(i_m, r).
func (m *Model) Predict(coord []int) float64 {
	if len(coord) != len(m.Factors) {
		panic(fmt.Sprintf("cpd: coord order %d != %d", len(coord), len(m.Factors)))
	}
	r := m.Rank()
	s := 0.0
	for k := 0; k < r; k++ {
		p := m.Lambda[k]
		for mm, f := range m.Factors {
			p *= f.Row(coord[mm])[k]
		}
		s += p
	}
	return s
}

// ParamCount returns the number of model parameters Σ_m N_m·R, the quantity
// plotted in Fig. 1d.
func (m *Model) ParamCount() int {
	n := 0
	for _, f := range m.Factors {
		n += f.Rows() * f.Cols()
	}
	return n
}

// Grams returns the Gram matrices A⁽ᵐ⁾ᵀA⁽ᵐ⁾ of all factors.
func (m *Model) Grams() []*mat.Dense {
	out := make([]*mat.Dense, len(m.Factors))
	for i, f := range m.Factors {
		out[i] = mat.Gram(f)
	}
	return out
}

// NormSquared returns ‖X̃‖_F² = λᵀ (∗_m A⁽ᵐ⁾ᵀA⁽ᵐ⁾) λ without materializing
// the dense tensor.
func (m *Model) NormSquared() float64 {
	h := mat.HadamardAll(m.Grams()...)
	s := 0.0
	r := m.Rank()
	for i := 0; i < r; i++ {
		hi := h.Row(i)
		for j := 0; j < r; j++ {
			s += m.Lambda[i] * m.Lambda[j] * hi[j]
		}
	}
	return s
}

// InnerProduct returns ⟨X, X̃⟩ summed over the nonzeros of X in the
// tensor's iteration order, each term v·Predict(J). Order-3 models run the
// span scan of scan.go, bit-identical to the generic loop below.
func (m *Model) InnerProduct(x *tensor.Sparse) float64 {
	if m.Order() == 3 {
		return innerProduct3(x, m)
	}
	s := 0.0
	x.ForEachNonzero(func(coord []int, v float64) {
		s += v * m.Predict(coord)
	})
	return s
}

// FoldLambda absorbs the column weights λ evenly into the factors (each
// mode scaled by |λ|^{1/M}, the sign carried on the first mode) and resets
// λ to ones. Methods that skip column normalization during updates
// (SNS_VEC, SNS_RND, SNS⁺ and the online baselines) start from an
// unnormalized model produced this way.
func FoldLambda(m *Model) {
	order := float64(m.Order())
	for r, l := range m.Lambda {
		if l == 1 {
			continue
		}
		root := math.Pow(math.Abs(l), 1/order)
		for mi, f := range m.Factors {
			scale := root
			if mi == 0 && l < 0 {
				scale = -root
			}
			for i := 0; i < f.Rows(); i++ {
				f.Row(i)[r] *= scale
			}
		}
		m.Lambda[r] = 1
	}
}

// HasNaN reports whether any factor entry or weight is NaN/Inf — the
// instability signature of unnormalized, unclipped updates (Observation 3).
func (m *Model) HasNaN() bool {
	if mat.VecHasNaN(m.Lambda) {
		return true
	}
	for _, f := range m.Factors {
		if f.HasNaN() {
			return true
		}
	}
	return false
}
