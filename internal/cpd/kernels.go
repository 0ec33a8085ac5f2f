package cpd

import (
	"slicenstitch/internal/mat"
	"slicenstitch/internal/tensor"
)

// Kernels bundles the rank-critical inner kernels of the per-event row
// updates, selected once at tracker construction for the model's
// (order, rank) shape. Every specialization is bit-identical to the
// generic reference implementations in this package (MTTKRPRowInto,
// KRRow, the predictPrev loop): the fixed-rank bodies perform the exact
// same per-element floating-point operation chains in the exact same
// order, only with compile-time loop bounds so the compiler drops the
// bounds checks and loop-carried overhead. TestKernelsBitIdentical holds
// that contract.
//
// Order-3 tensors (two non-time modes plus time — the paper's default
// shape) additionally get fused three-operand kernels (KRAxpy3,
// Predict3) that collapse the Khatri-Rao scratch pass into the consuming
// loop. For other orders those fields are nil and callers fall back to
// the generic path.
type Kernels struct {
	Order, Rank int
	// Fixed reports whether fixed-rank specializations were selected
	// (order 3 and R ∈ {8, 10, 16, 20} — the benchmark and paper ranks).
	Fixed bool
	// MTTKRPRow computes the (mode,idx) row of the MTTKRP into dst,
	// bit-identically to MTTKRPRowInto. scratch must have length R and is
	// only written by the generic fallback.
	MTTKRPRow func(x *tensor.Sparse, factors []*mat.Dense, mode, idx int, dst, scratch []float64) []float64
	// KRAxpy3 (order 3 only, nil otherwise) accumulates one Khatri-Rao
	// term: dst[k] += s·(a[k]·b[k]), the fused form of KRRow followed by
	// an axpy with the two non-mode factor rows a, b (ascending mode
	// order).
	KRAxpy3 func(dst []float64, s float64, a, b []float64)
	// Predict3 (order 3 only, nil otherwise) evaluates the rank-R inner
	// product Σ_k a[k]·b[k]·c[k] — one x̃_J under factor rows a, b, c
	// (ascending mode order).
	Predict3 func(a, b, c []float64) float64
}

// ForShape selects the kernel set for a model of the given order and
// rank. The result is shared, immutable, and safe for concurrent use.
func ForShape(order, rank int) *Kernels {
	k := &Kernels{Order: order, Rank: rank}
	if order != 3 {
		k.MTTKRPRow = MTTKRPRowInto
		return k
	}
	switch rank {
	case 8:
		k.Fixed = true
		k.MTTKRPRow = mttkrpRow3R8
		k.KRAxpy3 = krAxpy3R8
		k.Predict3 = predict3R8
	case 10:
		k.Fixed = true
		k.MTTKRPRow = mttkrpRow3R10
		k.KRAxpy3 = krAxpy3R10
		k.Predict3 = predict3R10
	case 16:
		k.Fixed = true
		k.MTTKRPRow = mttkrpRow3R16
		k.KRAxpy3 = krAxpy3R16
		k.Predict3 = predict3R16
	case 20:
		k.Fixed = true
		k.MTTKRPRow = mttkrpRow3R20
		k.KRAxpy3 = krAxpy3R20
		k.Predict3 = predict3R20
	default:
		k.MTTKRPRow = mttkrpRow3Any
		k.KRAxpy3 = krAxpy3Any
		k.Predict3 = predict3Any
	}
	return k
}

// OtherModes3 returns the two non-mode indices of an order-3 tensor in
// ascending order — the factor iteration order of the generic kernels,
// which the fused forms (and their callers selecting the two non-mode
// factor rows) must preserve for bit-identity.
func OtherModes3(mode int) (int, int) { return otherModes3(mode) }

func otherModes3(mode int) (int, int) {
	switch mode {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	default:
		return 0, 1
	}
}

// fiber3 decodes the two non-mode indices (ascending mode order) of a key
// in the order-3 fiber whose own index contributes base = idx·Stride(mode)
// to every key. Subtracting base leaves ia·sa + ib·sb with ib·sb < sa (the
// encoding is row-major), so two divisions recover both indices where
// k/Stride mod Dim would take four.
func fiber3(key, base, sa, sb uint64) (ia, ib int) {
	r := key - base
	qa := r / sa
	return int(qa), int((r - qa*sa) / sb)
}

// mttkrpRow3Any is the order-3 MTTKRP row with runtime rank: the generic
// reference fused into a single pass per nonzero (t = (v·a_k)·b_k matches
// the scratch-buffer chain of MTTKRPRowInto exactly) and iterated over
// the raw slice span so no closure call is paid per nonzero.
func mttkrpRow3Any(x *tensor.Sparse, factors []*mat.Dense, mode, idx int, dst, _ []float64) []float64 {
	for k := range dst {
		dst[k] = 0
	}
	ma, mb := otherModes3(mode)
	fa, fb := factors[ma], factors[mb]
	sa, sb := x.Stride(ma), x.Stride(mb)
	base := uint64(idx) * x.Stride(mode)
	for _, key := range x.SliceSpan(mode, idx) {
		if key == tensor.Tombstone {
			continue
		}
		v := x.AtKey(key)
		ia, ib := fiber3(key, base, sa, sb)
		ra := fa.Row(ia)[:len(dst)]
		rb := fb.Row(ib)[:len(dst)]
		for k := range dst {
			t := v * ra[k]
			t *= rb[k]
			dst[k] += t
		}
	}
	return dst
}

// krAxpy3Any: dst[k] += s·(a[k]·b[k]) with runtime rank.
func krAxpy3Any(dst []float64, s float64, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for k := range dst {
		t := a[k] * b[k]
		dst[k] += s * t
	}
}

// predict3Any: Σ_k (a[k]·b[k])·c[k] with runtime rank.
func predict3Any(a, b, c []float64) float64 {
	b = b[:len(a)]
	c = c[:len(a)]
	s := 0.0
	for k := range a {
		t := a[k] * b[k]
		t *= c[k]
		s += t
	}
	return s
}
