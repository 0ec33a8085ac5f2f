package cpd

import (
	"slicenstitch/internal/mat"
	"slicenstitch/internal/tensor"
)

// Whole-tensor scans: the inner product ⟨X, X̃⟩ behind Fitness and the
// whole-mode MTTKRP behind every ALS sweep. Both visit every nonzero, so
// order-3 tensors walk the tensor's (key, value) spans directly — no hash
// probe and no closure call per nonzero — with the factor rows looked up
// once per nonzero. Each body performs the reference chain of its generic
// form exactly, in the same iteration order, so results are bit-identical
// (TestScansBitIdentical):
//
//   - inner product: p = λ_k; p *= a_k; p *= b_k; p *= c_k; pr += p over
//     ascending k, then s += v·pr — Model.Predict's chain;
//   - MTTKRP: t = v·a_k; t *= b_k; o_k += t with a, b the two non-mode
//     factor rows in ascending mode order — MTTKRPRowInto's chain.

// decode3 splits an order-3 key into its coordinates: the mode-0 index
// by one division, the rest as the mode-0 fiber's fiber3 decode (the last
// stride of the row-major encoding is 1; see tensor.Sparse.Stride).
func decode3(key, s0, s1 uint64) (i0, i1, i2 int) {
	q0 := key / s0
	i1, i2 = fiber3(key, q0*s0, s1, 1)
	return int(q0), i1, i2
}

// split3 decodes an order-3 key into the mode-`mode` index (the MTTKRP
// output row) and the two non-mode indices in ascending mode order.
func split3(key, s0, s1 uint64, mode int) (out, a, b int) {
	i0, i1, i2 := decode3(key, s0, s1)
	switch mode {
	case 0:
		return i0, i1, i2
	case 1:
		return i1, i0, i2
	default:
		return i2, i0, i1
	}
}

func innerProduct3(x *tensor.Sparse, m *Model) float64 {
	keys, vals := x.Entries()
	vals = vals[:len(keys)]
	s0, s1 := x.Stride(0), x.Stride(1)
	l := m.Lambda
	f0, f1, f2 := m.Factors[0], m.Factors[1], m.Factors[2]
	s := 0.0
	for j, key := range keys {
		if key == tensor.Tombstone {
			continue
		}
		i0, i1, i2 := decode3(key, s0, s1)
		a := f0.Row(i0)[:len(l)]
		b := f1.Row(i1)[:len(l)]
		c := f2.Row(i2)[:len(l)]
		pr := 0.0
		for k := range l {
			p := l[k]
			p *= a[k]
			p *= b[k]
			p *= c[k]
			pr += p
		}
		s += vals[j] * pr
	}
	return s
}

func mttkrp3(dst *mat.Dense, x *tensor.Sparse, factors []*mat.Dense, mode int) {
	keys, vals := x.Entries()
	vals = vals[:len(keys)]
	s0, s1 := x.Stride(0), x.Stride(1)
	ma, mb := otherModes3(mode)
	fa, fb := factors[ma], factors[mb]
	r := dst.Cols()
	for j, key := range keys {
		if key == tensor.Tombstone {
			continue
		}
		io, ia, ib := split3(key, s0, s1, mode)
		o := dst.Row(io)[:r]
		a := fa.Row(ia)[:r]
		b := fb.Row(ib)[:r]
		v := vals[j]
		for k := range o {
			t := v * a[k]
			t *= b[k]
			o[k] += t
		}
	}
}
