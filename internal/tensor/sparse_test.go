package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKeyCoordRoundTrip(t *testing.T) {
	ts := NewSparse([]int{3, 4, 5})
	coord := []int{2, 1, 4}
	k := ts.Key(coord)
	got := ts.Coord(k, nil)
	for m := range coord {
		if got[m] != coord[m] {
			t.Fatalf("roundtrip %v -> %v", coord, got)
		}
	}
}

func TestQuickKeyCoordRoundTrip(t *testing.T) {
	ts := NewSparse([]int{7, 11, 13, 5})
	f := func(a, b, c, d uint8) bool {
		coord := []int{int(a) % 7, int(b) % 11, int(c) % 13, int(d) % 5}
		got := ts.Coord(ts.Key(coord), nil)
		for m := range coord {
			if got[m] != coord[m] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetAtAddEvict(t *testing.T) {
	ts := NewSparse([]int{2, 3})
	c := []int{1, 2}
	if got := ts.At(c); got != 0 {
		t.Errorf("empty At = %g", got)
	}
	ts.Set(c, 2.5)
	if got := ts.At(c); got != 2.5 {
		t.Errorf("At = %g want 2.5", got)
	}
	if ts.NNZ() != 1 {
		t.Errorf("NNZ = %d want 1", ts.NNZ())
	}
	ts.Add(c, -2.5)
	if ts.NNZ() != 0 {
		t.Errorf("NNZ after cancel = %d want 0", ts.NNZ())
	}
	if ts.Deg(0, 1) != 0 || ts.Deg(1, 2) != 0 {
		t.Error("registries not cleaned after eviction")
	}
}

func TestAddReturnsNewValue(t *testing.T) {
	ts := NewSparse([]int{2, 2})
	if got := ts.Add([]int{0, 0}, 3); got != 3 {
		t.Errorf("Add returned %g want 3", got)
	}
	if got := ts.Add([]int{0, 0}, -1); got != 2 {
		t.Errorf("Add returned %g want 2", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	ts := NewSparse([]int{2, 2})
	for _, c := range [][]int{{2, 0}, {0, -1}, {0}} {
		c := c
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for coord %v", c)
				}
			}()
			ts.At(c)
		}()
	}
}

func TestBadShapePanics(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {3, -1}} {
		shape := shape
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for shape %v", shape)
				}
			}()
			NewSparse(shape)
		}()
	}
}

func TestDegAndSliceIteration(t *testing.T) {
	ts := NewSparse([]int{3, 3, 4})
	ts.Set([]int{0, 1, 2}, 1)
	ts.Set([]int{0, 2, 3}, 2)
	ts.Set([]int{1, 1, 2}, 3)
	if got := ts.Deg(0, 0); got != 2 {
		t.Errorf("Deg(0,0) = %d want 2", got)
	}
	if got := ts.Deg(1, 1); got != 2 {
		t.Errorf("Deg(1,1) = %d want 2", got)
	}
	if got := ts.Deg(2, 2); got != 2 {
		t.Errorf("Deg(2,2) = %d want 2", got)
	}
	if got := ts.Deg(2, 0); got != 0 {
		t.Errorf("Deg(2,0) = %d want 0", got)
	}
	sum := 0.0
	count := 0
	ts.ForEachInSlice(1, 1, func(coord []int, v float64) {
		if coord[1] != 1 {
			t.Errorf("slice iteration leaked coord %v", coord)
		}
		sum += v
		count++
	})
	if count != 2 || sum != 4 {
		t.Errorf("slice iteration: count=%d sum=%g want 2, 4", count, sum)
	}
}

func TestNormMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ts := NewSparse([]int{5, 5, 5})
	coords := make([][]int, 0, 50)
	for i := 0; i < 50; i++ {
		c := []int{rng.Intn(5), rng.Intn(5), rng.Intn(5)}
		coords = append(coords, c)
		ts.Add(c, rng.NormFloat64())
	}
	// Random cancellations.
	for _, c := range coords[:20] {
		ts.Add(c, -ts.At(c))
	}
	maintained := ts.NormSquared()
	exact := ts.RecomputeNormSquared()
	if math.Abs(maintained-exact) > 1e-9*(1+exact) {
		t.Errorf("norm drift: maintained %g exact %g", maintained, exact)
	}
}

// Property: after any sequence of random set/add operations, the fiber
// registries exactly index the nonzero support.
func TestQuickRegistryConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ts := NewSparse([]int{4, 3, 5})
		for op := 0; op < 200; op++ {
			c := []int{rng.Intn(4), rng.Intn(3), rng.Intn(5)}
			switch rng.Intn(3) {
			case 0:
				ts.Set(c, rng.NormFloat64())
			case 1:
				ts.Add(c, rng.NormFloat64())
			default:
				ts.Set(c, 0)
			}
		}
		// Check Deg against brute force for every (mode, index).
		for m := 0; m < 3; m++ {
			for i := 0; i < ts.Dim(m); i++ {
				want := 0
				ts.ForEachNonzero(func(coord []int, v float64) {
					if coord[m] == i {
						want++
					}
				})
				if ts.Deg(m, i) != want {
					return false
				}
				seen := 0
				ts.ForEachInSlice(m, i, func(coord []int, v float64) {
					if coord[m] != i || ts.At(coord) != v {
						seen = -1 << 20
					}
					seen++
				})
				if seen != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// refTensor is the plain reference model of the value-carrying registry:
// a value map plus the insertion-ordered list of live keys (a removed key
// leaves the list; re-adding it appends it again).
type refTensor struct {
	vals  map[uint64]float64
	order []uint64
}

func (r *refTensor) set(k uint64, v float64) {
	_, had := r.vals[k]
	if math.Abs(v) < zeroEps {
		if had {
			delete(r.vals, k)
			for j, o := range r.order {
				if o == k {
					r.order = append(r.order[:j], r.order[j+1:]...)
					break
				}
			}
		}
		return
	}
	if !had {
		r.order = append(r.order, k)
	}
	r.vals[k] = v
}

// checkAgainst reports the first disagreement between ts and the reference:
// point lookups over every cell, NNZ, Deg of every (mode, index), the
// ForEachKey order, and key/value alignment of the raw Entries spans.
func (r *refTensor) checkAgainst(t *testing.T, ts *Sparse, step int) {
	t.Helper()
	if ts.NNZ() != len(r.order) {
		t.Fatalf("step %d: NNZ %d want %d", step, ts.NNZ(), len(r.order))
	}
	deg := make([][]int, ts.Order())
	for m := range deg {
		deg[m] = make([]int, ts.Dim(m))
	}
	coord := make([]int, ts.Order())
	for k := uint64(0); k < ts.Size(); k++ {
		if got, want := ts.AtKey(k), r.vals[k]; got != want {
			t.Fatalf("step %d: AtKey(%d) = %g want %g", step, k, got, want)
		}
		if _, ok := r.vals[k]; ok {
			for m, i := range ts.Coord(k, coord) {
				deg[m][i]++
			}
		}
	}
	for m := range deg {
		for i, want := range deg[m] {
			if got := ts.Deg(m, i); got != want {
				t.Fatalf("step %d: Deg(%d,%d) = %d want %d", step, m, i, got, want)
			}
		}
	}
	n := 0
	ts.ForEachKey(func(k uint64, v float64) {
		if n >= len(r.order) || k != r.order[n] || v != r.vals[k] {
			t.Fatalf("step %d: ForEachKey position %d = (%d, %g), reference order %v", step, n, k, v, r.order)
		}
		n++
	})
	keys, vals := ts.Entries()
	if len(keys) != len(vals) {
		t.Fatalf("step %d: Entries spans of length %d and %d", step, len(keys), len(vals))
	}
	n = 0
	for j, k := range keys {
		if k == Tombstone {
			continue
		}
		if k != r.order[n] || vals[j] != r.vals[k] {
			t.Fatalf("step %d: Entries slot %d = (%d, %g), want (%d, %g)", step, j, k, vals[j], r.order[n], r.vals[r.order[n]])
		}
		n++
	}
}

// Property: under random Add/SetKey/zeroing sequences — with small integer
// values so Add pairs cancel to exact zeros and evict — the registry that
// carries each value beside its key agrees with the plain reference model
// at every step, across tombstoning and compaction. Clone keeps the
// iteration order.
func TestRegistryMatchesReference(t *testing.T) {
	compactions := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ts := NewSparse([]int{4, 3, 5})
		ref := &refTensor{vals: map[uint64]float64{}}
		prevSpan := 0
		for step := 0; step < 400; step++ {
			k := uint64(rng.Intn(int(ts.Size())))
			v := float64(rng.Intn(7) - 3)
			switch rng.Intn(4) {
			case 0:
				ts.SetKey(k, v)
				ref.set(k, v)
			case 1, 2:
				got := ts.Add(ts.Coord(k, nil), v)
				want := ref.vals[k] + v
				if got != want {
					t.Fatalf("seed %d step %d: Add returned %g want %g", seed, step, got, want)
				}
				ref.set(k, want)
			default:
				ts.SetKey(k, 0)
				ref.set(k, 0)
			}
			keys, _ := ts.Entries()
			if len(keys) < prevSpan {
				compactions++
			}
			prevSpan = len(keys)
			ref.checkAgainst(t, ts, step)
		}
		ref.checkAgainst(t, ts.Clone(), -1)
	}
	if compactions == 0 {
		t.Fatal("no compaction happened; the property did not cover it")
	}
}

func TestCloneIndependence(t *testing.T) {
	ts := NewSparse([]int{2, 2})
	ts.Set([]int{0, 0}, 1)
	cp := ts.Clone()
	cp.Set([]int{0, 0}, 5)
	cp.Set([]int{1, 1}, 7)
	if ts.At([]int{0, 0}) != 1 || ts.NNZ() != 1 {
		t.Error("Clone aliases original")
	}
	if cp.At([]int{0, 0}) != 5 || cp.NNZ() != 2 {
		t.Error("Clone mutation lost")
	}
}

func TestEqualApprox(t *testing.T) {
	a := NewSparse([]int{2, 2})
	b := NewSparse([]int{2, 2})
	a.Set([]int{0, 1}, 1.0)
	b.Set([]int{0, 1}, 1.0000001)
	if !a.EqualApprox(b, 1e-3) {
		t.Error("should be approx equal")
	}
	if a.EqualApprox(b, 1e-12) {
		t.Error("should differ at tight tol")
	}
	b.Set([]int{1, 1}, 5)
	if a.EqualApprox(b, 1e-3) {
		t.Error("extra entry should break equality")
	}
	c := NewSparse([]int{2, 3})
	if a.EqualApprox(c, 1) {
		t.Error("different shapes should not be equal")
	}
}

func TestSizeAndStringSmoke(t *testing.T) {
	ts := NewSparse([]int{3, 4})
	if ts.Size() != 12 {
		t.Errorf("Size = %d want 12", ts.Size())
	}
	if ts.Order() != 2 {
		t.Errorf("Order = %d want 2", ts.Order())
	}
	if s := ts.String(); s == "" {
		t.Error("empty String")
	}
	sh := ts.Shape()
	sh[0] = 99
	if ts.Dim(0) != 3 {
		t.Error("Shape should return a copy")
	}
}

func TestOverflowShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	NewSparse([]int{1 << 31, 1 << 31, 1 << 31})
}

func TestKeySetBasics(t *testing.T) {
	s := newKeySet()
	s.Add(5)
	s.Add(5)
	s.Add(9)
	if s.Len() != 2 {
		t.Errorf("Len = %d want 2", s.Len())
	}
	s.Remove(5)
	if _, ok := s.pos[5]; s.Len() != 1 || ok {
		t.Error("Remove failed")
	}
	s.Remove(123) // absent: no-op
	if s.Len() != 1 {
		t.Error("Remove of absent key changed set")
	}
	got := []uint64{}
	s.ForEach(func(k uint64) { got = append(got, k) })
	if len(got) != 1 || got[0] != 9 {
		t.Errorf("ForEach = %v", got)
	}
}

func TestForEachKeyAndRecompute(t *testing.T) {
	ts := NewSparse([]int{3, 3})
	ts.Set([]int{0, 1}, 2)
	ts.Set([]int{2, 2}, -3)
	sum := 0.0
	ts.ForEachKey(func(k uint64, v float64) { sum += v })
	if sum != -1 {
		t.Errorf("ForEachKey sum = %g want -1", sum)
	}
	if got := ts.RecomputeNormSquared(); math.Abs(got-13) > 1e-12 {
		t.Errorf("RecomputeNormSquared = %g want 13", got)
	}
	if got := ts.NormSquared(); math.Abs(got-13) > 1e-12 {
		t.Errorf("NormSquared after recompute = %g", got)
	}
}

func TestDeterministicIterationOrder(t *testing.T) {
	build := func() []uint64 {
		ts := NewSparse([]int{10, 10})
		for i := 0; i < 50; i++ {
			ts.Set([]int{i % 10, (i * 7) % 10}, float64(i+1))
		}
		ts.Set([]int{3, 3}, 0) // removal reshuffles via swap-delete
		var order []uint64
		ts.ForEachKey(func(k uint64, v float64) { order = append(order, k) })
		return order
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iteration order not deterministic at %d", i)
		}
	}
}

func TestAtKeySetKey(t *testing.T) {
	ts := NewSparse([]int{4, 4})
	k := ts.Key([]int{1, 2})
	ts.SetKey(k, 5)
	if ts.AtKey(k) != 5 || ts.At([]int{1, 2}) != 5 {
		t.Error("SetKey/AtKey mismatch")
	}
	ts.SetKey(k, 1e-15) // below eviction threshold: removed
	if ts.NNZ() != 0 {
		t.Error("near-zero value should evict")
	}
}
