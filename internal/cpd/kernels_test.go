package cpd

import (
	"math"
	"math/rand"
	"testing"

	"slicenstitch/internal/mat"
	"slicenstitch/internal/tensor"
)

// kernelTestSetup builds a small order-3 tensor with mixed-sign values and
// wildly varying magnitudes (1e-30..1e+3) plus matching random factors —
// adversarial inputs for floating-point identity.
func kernelTestSetup(t *testing.T, r int, seed int64) (*tensor.Sparse, []*mat.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dims := []int{13, 9, 5}
	x := tensor.NewSparse(dims)
	for i := 0; i < 150; i++ {
		coord := []int{rng.Intn(13), rng.Intn(9), rng.Intn(5)}
		mag := math.Pow(10, float64(rng.Intn(34))-30)
		x.Set(coord, (rng.Float64()*2-1)*mag)
	}
	factors := make([]*mat.Dense, 3)
	for m, n := range dims {
		factors[m] = mat.New(n, r)
		for i := 0; i < n; i++ {
			row := factors[m].Row(i)
			for k := range row {
				row[k] = rng.NormFloat64()
			}
		}
	}
	return x, factors
}

// TestKernelsBitIdentical holds the contract stated on Kernels: every
// shape-specialized kernel ForShape selects — the fixed-rank stamps for
// R ∈ {8, 10, 16, 20} and the runtime-rank order-3 forms for every other
// rank — produces results bit-identical (math.Float64bits equal) to the
// generic reference implementations.
func TestKernelsBitIdentical(t *testing.T) {
	for _, r := range []int{7, 8, 10, 16, 20} {
		x, factors := kernelTestSetup(t, r, int64(100+r))
		kern := ForShape(3, r)
		wantFixed := r == 8 || r == 10 || r == 16 || r == 20
		if kern.Fixed != wantFixed {
			t.Fatalf("R=%d: Fixed=%v want %v", r, kern.Fixed, wantFixed)
		}

		// MTTKRPRow vs the any-order reference, every mode and row.
		got := make([]float64, r)
		scratch := make([]float64, r)
		want := make([]float64, r)
		wScratch := make([]float64, r)
		for m := 0; m < 3; m++ {
			for i := 0; i < x.Dim(m); i++ {
				kern.MTTKRPRow(x, factors, m, i, got, scratch)
				MTTKRPRowInto(x, factors, m, i, want, wScratch)
				for k := range got {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("R=%d MTTKRPRow mode=%d row=%d k=%d: %x != %x (%g vs %g)",
							r, m, i, k, math.Float64bits(got[k]), math.Float64bits(want[k]), got[k], want[k])
					}
				}
			}
		}

		// KRAxpy3 vs KRRow followed by an explicit axpy.
		rng := rand.New(rand.NewSource(int64(200 + r)))
		coord := make([]int, 3)
		for m := 0; m < 3; m++ {
			for trial := 0; trial < 25; trial++ {
				for n := 0; n < 3; n++ {
					coord[n] = rng.Intn(x.Dim(n))
				}
				s := rng.NormFloat64()
				for k := 0; k < r; k++ {
					got[k] = rng.NormFloat64()
					want[k] = got[k]
				}
				ma, mb := OtherModes3(m)
				kern.KRAxpy3(got, s, factors[ma].Row(coord[ma]), factors[mb].Row(coord[mb]))
				kr := KRRow(factors, coord, m, wScratch)
				for k := range want {
					want[k] += s * kr[k]
				}
				for k := range got {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("R=%d KRAxpy3 mode=%d k=%d: %g != %g", r, m, k, got[k], want[k])
					}
				}
			}
		}

		// Predict3 vs the scratch-buffer product chain (KRRow over two
		// modes then a dot with the third, as the generic predict performs).
		for trial := 0; trial < 50; trial++ {
			for n := 0; n < 3; n++ {
				coord[n] = rng.Intn(x.Dim(n))
			}
			a := factors[0].Row(coord[0])
			b := factors[1].Row(coord[1])
			c := factors[2].Row(coord[2])
			gotV := kern.Predict3(a, b, c)
			wantV := 0.0
			for k := 0; k < r; k++ {
				tt := a[k] * b[k]
				tt *= c[k]
				wantV += tt
			}
			if math.Float64bits(gotV) != math.Float64bits(wantV) {
				t.Fatalf("R=%d Predict3: %g != %g", r, gotV, wantV)
			}
		}
	}
}

// churnedTensor returns an adversarial tensor (as kernelTestSetup's) that
// has been churned: some entries were deleted so the registry holds
// tombstones, and — when compacted is set — enough were deleted to force
// an order-preserving compaction before new entries were added and a few
// more deleted.
func churnedTensor(t *testing.T, dims []int, rng *rand.Rand, compacted bool) *tensor.Sparse {
	t.Helper()
	x := tensor.NewSparse(dims)
	coord := make([]int, len(dims))
	fill := func(n int) {
		for i := 0; i < n; i++ {
			for m, d := range dims {
				coord[m] = rng.Intn(d)
			}
			mag := math.Pow(10, float64(rng.Intn(34))-30)
			x.Set(coord, (rng.Float64()*2-1)*mag)
		}
	}
	// deleteLive zeroes live entries, each time the one a third of the way
	// through the iteration order, until n are gone or the backing span
	// shrinks (a compaction).
	deleteLive := func(n int, untilCompaction bool) {
		for ; n > 0; n-- {
			var live []uint64
			x.ForEachKey(func(k uint64, _ float64) { live = append(live, k) })
			keys, _ := x.Entries()
			span := len(keys)
			x.SetKey(live[len(live)/3], 0)
			if keys, _ = x.Entries(); untilCompaction && len(keys) < span {
				return
			}
		}
	}
	fill(150)
	if compacted {
		deleteLive(x.NNZ(), true)
		fill(60)
	}
	deleteLive(x.NNZ()/5, false)
	if keys, _ := x.Entries(); len(keys) == x.NNZ() {
		t.Fatal("churned tensor holds no tombstones")
	}
	return x
}

// TestScansBitIdentical holds the whole-tensor scans (scan.go) to their
// per-nonzero references bit for bit: InnerProduct against v·Predict
// summed in ForEachKey order, and every row of MTTKRPInto against
// MTTKRPRowInto — at order 3 for the ranks ForShape distinguishes in the
// row kernels (7 and the stamped 8, 10, 16, 20) plus order 4, with λ ≠ 1,
// on tensors holding tombstones before and after a compaction.
func TestScansBitIdentical(t *testing.T) {
	shapes := []struct {
		dims []int
		r    int
	}{
		{[]int{13, 9, 5}, 7}, {[]int{13, 9, 5}, 8}, {[]int{13, 9, 5}, 10},
		{[]int{13, 9, 5}, 16}, {[]int{13, 9, 5}, 20}, {[]int{7, 5, 4, 3}, 8},
	}
	for _, sh := range shapes {
		for _, compacted := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(300 + sh.r + len(sh.dims))))
			x := churnedTensor(t, sh.dims, rng, compacted)
			m := NewModel(sh.dims, sh.r)
			for k := range m.Lambda {
				m.Lambda[k] = rng.NormFloat64() * 3
			}
			for _, f := range m.Factors {
				d := f.Data()
				for i := range d {
					d[i] = rng.NormFloat64()
				}
			}

			want := 0.0
			coord := make([]int, len(sh.dims))
			x.ForEachKey(func(k uint64, v float64) {
				want += v * m.Predict(x.Coord(k, coord))
			})
			if got := m.InnerProduct(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dims %v R=%d compacted=%v: InnerProduct %g != %g", sh.dims, sh.r, compacted, got, want)
			}

			row := make([]float64, sh.r)
			scratch := make([]float64, sh.r)
			for mode, d := range sh.dims {
				u := MTTKRPInto(mat.New(d, sh.r), x, m.Factors, mode, make([]float64, sh.r))
				for i := 0; i < d; i++ {
					MTTKRPRowInto(x, m.Factors, mode, i, row, scratch)
					for k, w := range row {
						if g := u.Row(i)[k]; math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("dims %v R=%d compacted=%v: MTTKRPInto mode=%d row=%d k=%d: %g != %g",
								sh.dims, sh.r, compacted, mode, i, k, g, w)
						}
					}
				}
			}
		}
	}
}

// TestForShapeFallbacks: non-order-3 shapes get the any-order reference
// and nil fused kernels.
func TestForShapeFallbacks(t *testing.T) {
	k := ForShape(4, 8)
	if k.Fixed || k.KRAxpy3 != nil || k.Predict3 != nil {
		t.Fatal("order-4 shape must not select order-3 kernels")
	}
	if k.MTTKRPRow == nil {
		t.Fatal("order-4 shape must still provide MTTKRPRow")
	}
}
