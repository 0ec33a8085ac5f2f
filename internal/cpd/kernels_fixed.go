package cpd

import (
	"slicenstitch/internal/mat"
	"slicenstitch/internal/tensor"
)

// Fixed-rank kernel specializations for the ranks the repo actually runs
// hot: R=8 (the committed ingest benchmark), R=10 and R=20 (the paper's
// settings), and R=16 (a power-of-two midpoint). Each body is the
// corresponding *Any kernel with the factor rows viewed through
// *[R]float64 array pointers, so every loop has a compile-time bound and
// the compiler eliminates all bounds checks. The floating-point operation
// chains are untouched — per element t=(v·a_k)·b_k, sums accumulated in
// ascending k — so results are bit-identical to the generic kernels
// (TestKernelsBitIdentical).
//
// The four ranks are hand-stamped rather than generated: Go generics
// cannot parameterize over array lengths (a constraint uniting [8]float64
// and [20]float64 has no core type, so neither indexing nor ranging
// compiles), and a go:generate step would be heavier than the ~40 lines
// per rank it saves.

func mttkrpRow3R8(x *tensor.Sparse, factors []*mat.Dense, mode, idx int, dst, _ []float64) []float64 {
	d := (*[8]float64)(dst)
	for k := range d {
		d[k] = 0
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
		a := (*[8]float64)(fa.Row(ia))
		b := (*[8]float64)(fb.Row(ib))
		for k := range d {
			t := v * a[k]
			t *= b[k]
			d[k] += t
		}
	}
	return dst
}

func krAxpy3R8(dst []float64, s float64, a, b []float64) {
	d := (*[8]float64)(dst)
	av := (*[8]float64)(a)
	bv := (*[8]float64)(b)
	for k := range d {
		t := av[k] * bv[k]
		d[k] += s * t
	}
}

func predict3R8(a, b, c []float64) float64 {
	av := (*[8]float64)(a)
	bv := (*[8]float64)(b)
	cv := (*[8]float64)(c)
	s := 0.0
	for k := range av {
		t := av[k] * bv[k]
		t *= cv[k]
		s += t
	}
	return s
}

func mttkrpRow3R10(x *tensor.Sparse, factors []*mat.Dense, mode, idx int, dst, _ []float64) []float64 {
	d := (*[10]float64)(dst)
	for k := range d {
		d[k] = 0
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
		a := (*[10]float64)(fa.Row(ia))
		b := (*[10]float64)(fb.Row(ib))
		for k := range d {
			t := v * a[k]
			t *= b[k]
			d[k] += t
		}
	}
	return dst
}

func krAxpy3R10(dst []float64, s float64, a, b []float64) {
	d := (*[10]float64)(dst)
	av := (*[10]float64)(a)
	bv := (*[10]float64)(b)
	for k := range d {
		t := av[k] * bv[k]
		d[k] += s * t
	}
}

func predict3R10(a, b, c []float64) float64 {
	av := (*[10]float64)(a)
	bv := (*[10]float64)(b)
	cv := (*[10]float64)(c)
	s := 0.0
	for k := range av {
		t := av[k] * bv[k]
		t *= cv[k]
		s += t
	}
	return s
}

func mttkrpRow3R16(x *tensor.Sparse, factors []*mat.Dense, mode, idx int, dst, _ []float64) []float64 {
	d := (*[16]float64)(dst)
	for k := range d {
		d[k] = 0
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
		a := (*[16]float64)(fa.Row(ia))
		b := (*[16]float64)(fb.Row(ib))
		for k := range d {
			t := v * a[k]
			t *= b[k]
			d[k] += t
		}
	}
	return dst
}

func krAxpy3R16(dst []float64, s float64, a, b []float64) {
	d := (*[16]float64)(dst)
	av := (*[16]float64)(a)
	bv := (*[16]float64)(b)
	for k := range d {
		t := av[k] * bv[k]
		d[k] += s * t
	}
}

func predict3R16(a, b, c []float64) float64 {
	av := (*[16]float64)(a)
	bv := (*[16]float64)(b)
	cv := (*[16]float64)(c)
	s := 0.0
	for k := range av {
		t := av[k] * bv[k]
		t *= cv[k]
		s += t
	}
	return s
}

func mttkrpRow3R20(x *tensor.Sparse, factors []*mat.Dense, mode, idx int, dst, _ []float64) []float64 {
	d := (*[20]float64)(dst)
	for k := range d {
		d[k] = 0
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
		a := (*[20]float64)(fa.Row(ia))
		b := (*[20]float64)(fb.Row(ib))
		for k := range d {
			t := v * a[k]
			t *= b[k]
			d[k] += t
		}
	}
	return dst
}

func krAxpy3R20(dst []float64, s float64, a, b []float64) {
	d := (*[20]float64)(dst)
	av := (*[20]float64)(a)
	bv := (*[20]float64)(b)
	for k := range d {
		t := av[k] * bv[k]
		d[k] += s * t
	}
}

func predict3R20(a, b, c []float64) float64 {
	av := (*[20]float64)(a)
	bv := (*[20]float64)(b)
	cv := (*[20]float64)(c)
	s := 0.0
	for k := range av {
		t := av[k] * bv[k]
		t *= cv[k]
		s += t
	}
	return s
}
