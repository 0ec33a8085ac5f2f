// Package tensor implements the sparse tensor substrate of the SliceNStitch
// reproduction: a coordinate-format (COO) tensor with per-(mode,index)
// nonzero registries.
//
// Layout: every nonzero is a packed uint64 key (Σ_m i_m·Stride(m)). The
// whole-tensor registry keeps the keys in insertion order in one slice
// and each value in a parallel slice beside its key, with a hash index
// from key to slot for point lookups. Deletions tombstone their slot and
// an order-preserving compaction reclaims dead slots, so whole-tensor
// scans (Entries, ForEachKey, ForEachNonzero — and through them fitness
// and MTTKRP) walk two flat arrays without a hash probe per nonzero. Each
// (mode,index) fiber registry holds the keys of that slice in the same
// relative order; its values are read through the point lookup.
//
// The registries are what give the paper's algorithms their complexity
// guarantees: deg(m,i_m) — the number of nonzeros whose m-th mode index is
// i_m (Theorem 4) — is an O(1) lookup, and iterating a matricized row
// X_(m)(i_m,:) costs O(deg). SNS_RND's θ-sampling (Algorithm 4, line 12)
// draws cells of the dense slice, zeros included, so it lives in
// internal/core and needs only Key and point lookups from here.
package tensor

import (
	"fmt"
	"math"
)

// zeroEps is the magnitude below which an entry is considered zero and
// evicted from the sparse structure. Stream values are event counts or
// quantities; after an add/subtract pair cancels, residues are either
// exactly zero (same-magnitude float ops) or below this threshold.
const zeroEps = 1e-12

// Sparse is a sparse M-mode tensor with nonzero registries per mode index.
// It is not safe for concurrent mutation.
type Sparse struct {
	shape   []int
	strides []uint64
	// fibers[m][i] holds the keys of nonzeros whose mode-m index is i.
	// Registries are allocated lazily per index.
	fibers []map[int]*keySet
	// all holds every nonzero key and, beside it, its value, in
	// deterministic insertion order, so that whole-tensor iteration — and
	// therefore every accumulation in MTTKRP and fitness — is reproducible
	// for a fixed operation sequence.
	all    *keySet
	normSq float64 // maintained Σ x_J², see NormSquared.
	// coordScratch backs the coord slice handed to ForEach* callbacks,
	// keeping per-event slice iteration allocation-free. Like mutation,
	// iteration is single-goroutine by contract.
	coordScratch []int
}

// NewSparse returns an all-zero sparse tensor with the given shape. The
// product of the dimensions must fit in a uint64 key.
func NewSparse(shape []int) *Sparse {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	strides := make([]uint64, len(shape))
	capacity := uint64(1)
	for m := len(shape) - 1; m >= 0; m-- {
		if shape[m] <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in mode %d", shape[m], m))
		}
		strides[m] = capacity
		next := capacity * uint64(shape[m])
		if next/uint64(shape[m]) != capacity {
			panic(fmt.Sprintf("tensor: shape %v overflows uint64 keyspace", shape))
		}
		capacity = next
	}
	fibers := make([]map[int]*keySet, len(shape))
	for m := range fibers {
		fibers[m] = make(map[int]*keySet)
	}
	sh := make([]int, len(shape))
	copy(sh, shape)
	return &Sparse{
		shape:        sh,
		strides:      strides,
		fibers:       fibers,
		all:          newKeySet(),
		coordScratch: make([]int, len(sh)),
	}
}

// Order returns the number of modes M.
func (t *Sparse) Order() int { return len(t.shape) }

// Shape returns the dimension lengths (a copy).
func (t *Sparse) Shape() []int {
	out := make([]int, len(t.shape))
	copy(out, t.shape)
	return out
}

// Dim returns the length of mode m.
func (t *Sparse) Dim(m int) int { return t.shape[m] }

// NNZ returns the number of stored nonzeros |X|.
func (t *Sparse) NNZ() int { return t.all.Len() }

// Size returns the total number of cells Π N_m.
func (t *Sparse) Size() uint64 {
	s := uint64(1)
	for _, n := range t.shape {
		s *= uint64(n)
	}
	return s
}

// Key encodes a coordinate into its uint64 key.
func (t *Sparse) Key(coord []int) uint64 {
	if len(coord) != len(t.shape) {
		panic(fmt.Sprintf("tensor: coord order %d != %d", len(coord), len(t.shape)))
	}
	var k uint64
	for m, i := range coord {
		if i < 0 || i >= t.shape[m] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in mode %d", i, t.shape[m], m))
		}
		k += uint64(i) * t.strides[m]
	}
	return k
}

// Coord decodes a key into dst (allocated when nil) and returns it.
//
//sns:hotpath
func (t *Sparse) Coord(k uint64, dst []int) []int {
	if dst == nil {
		//lint:ignore hotpath allocates only for a nil dst; every hot caller passes the tensor's shared coordScratch
		dst = make([]int, len(t.shape))
	}
	for m := range t.shape {
		dst[m] = int(k / t.strides[m] % uint64(t.shape[m]))
	}
	return dst
}

// At returns the entry at coord (0 when not stored).
func (t *Sparse) At(coord []int) float64 { return t.AtKey(t.Key(coord)) }

// AtKey returns the entry for an encoded key (0 when not stored).
func (t *Sparse) AtKey(k uint64) float64 {
	if i, ok := t.all.pos[k]; ok {
		return t.all.vals[i]
	}
	return 0
}

// Set assigns the entry at coord, evicting it when v is (near) zero.
func (t *Sparse) Set(coord []int, v float64) { t.SetKey(t.Key(coord), v) }

// SetKey assigns the entry for an encoded key.
func (t *Sparse) SetKey(k uint64, v float64) {
	i, existed := t.all.pos[k]
	t.setAt(k, i, existed, v)
}

// Add adds v to the entry at coord and returns the new value.
//
//sns:hotpath
func (t *Sparse) Add(coord []int, v float64) float64 {
	k := t.Key(coord)
	i, existed := t.all.pos[k]
	nv := 0.0
	if existed {
		nv = t.all.vals[i]
	}
	nv += v
	t.setAt(k, i, existed, nv)
	return nv
}

// setAt assigns v to key k, whose registry slot i (valid when existed) the
// caller has already looked up, so an update of a stored entry costs one
// index probe in all.
//
//sns:hotpath
func (t *Sparse) setAt(k uint64, i int, existed bool, v float64) {
	old := 0.0
	if existed {
		old = t.all.vals[i]
	}
	if math.Abs(v) < zeroEps {
		if existed {
			t.normSq -= old * old
			t.all.removeAt(k, i)
			t.unregisterFibers(k)
		}
		return
	}
	t.normSq += v*v - old*old
	if existed {
		t.all.vals[i] = v
		return
	}
	t.all.insert(k, v)
	t.registerFibers(k)
}

//sns:hotpath
func (t *Sparse) registerFibers(k uint64) {
	for m := range t.shape {
		i := int(k / t.strides[m] % uint64(t.shape[m]))
		s := t.fibers[m][i]
		if s == nil {
			//lint:ignore hotpath amortized: one registry allocation per distinct (mode,index) ever touched, bounded by the mode sizes
			s = newKeySet()
			t.fibers[m][i] = s
		}
		s.Add(k)
	}
}

//sns:hotpath
func (t *Sparse) unregisterFibers(k uint64) {
	for m := range t.shape {
		i := int(k / t.strides[m] % uint64(t.shape[m]))
		if s := t.fibers[m][i]; s != nil {
			s.Remove(k)
			// Emptied registries are kept (not deleted) so an index whose
			// degree oscillates around zero — common under windowed expiry —
			// does not reallocate a keySet on every reappearance. Memory is
			// bounded by the distinct indices ever touched, at most Σ N_m.
		}
	}
}

// Deg returns deg(m, i): the number of nonzeros whose mode-m index is i.
func (t *Sparse) Deg(m, i int) int {
	if s := t.fibers[m][i]; s != nil {
		return s.Len()
	}
	return 0
}

// Tombstone is the sentinel marking dead slots in the raw key spans
// returned by SliceSpan. No live key ever equals it (the keyspace
// computation panics on uint64 overflow, so stored keys are strictly
// below ^uint64(0)).
const Tombstone = tombstone

// Stride returns the mode-m stride of the key encoding: coordinate i in
// mode m contributes i·Stride(m) to the key, so mode-m of a key k decodes
// as k/Stride(m) mod Dim(m). The encoding is row-major — the last mode has
// stride 1 and Stride(m) = Stride(m+1)·Dim(m+1) — so a whole key also
// decodes by successive division and remainder from mode 0 down.
func (t *Sparse) Stride(m int) uint64 { return t.strides[m] }

// SliceSpan returns the raw backing key span of the (m,i) slice registry:
// the keys of X_(m)(i,:) in the same deterministic order ForEachInSlice
// visits them, interleaved with Tombstone entries that callers must skip.
// The span is a live view — valid only until the tensor's next mutation,
// and must not be modified. It exists so the per-event MTTKRP kernels can
// iterate a matricized row without a closure call per nonzero.
func (t *Sparse) SliceSpan(m, i int) []uint64 {
	if s := t.fibers[m][i]; s != nil {
		return s.keys
	}
	return nil
}

// ForEachInSlice calls fn(coord, value) for every nonzero whose mode-m index
// is i — the nonzeros of the matricized row X_(m)(i,:). The coord slice is
// the tensor's shared scratch, reused across calls and across ForEach*
// invocations; fn must not retain it or start another ForEach* on the same
// tensor.
func (t *Sparse) ForEachInSlice(m, i int, fn func(coord []int, v float64)) {
	s := t.fibers[m][i]
	if s == nil {
		return
	}
	coord := t.coordScratch
	s.ForEach(func(k uint64) {
		t.Coord(k, coord)
		fn(coord, t.AtKey(k))
	})
}

// Entries returns the raw backing spans of the whole-tensor registry: keys
// in the deterministic order ForEachKey visits them, interleaved with
// Tombstone entries that callers must skip, and vals, where vals[j] is the
// value of keys[j] (meaningless at tombstones). Like SliceSpan the spans
// are a live view — valid only until the tensor's next mutation, and must
// not be modified. They exist so whole-tensor scans (fitness, MTTKRP,
// checkpoint encoding) read each value beside its key without a hash probe
// or a closure call per nonzero.
func (t *Sparse) Entries() (keys []uint64, vals []float64) {
	return t.all.keys, t.all.vals
}

// ForEachNonzero calls fn(coord, value) over all nonzeros in a
// deterministic order (fixed for a given operation history). The coord
// slice is the tensor's shared scratch, reused across calls and across
// ForEach* invocations; fn must not retain it or start another ForEach* on
// the same tensor.
func (t *Sparse) ForEachNonzero(fn func(coord []int, v float64)) {
	coord := t.coordScratch
	keys, vals := t.Entries()
	for j, k := range keys {
		if k == tombstone {
			continue
		}
		t.Coord(k, coord)
		fn(coord, vals[j])
	}
}

// ForEachKey calls fn(key, value) over all nonzeros in the same
// deterministic order as ForEachNonzero.
func (t *Sparse) ForEachKey(fn func(k uint64, v float64)) {
	keys, vals := t.Entries()
	for j, k := range keys {
		if k == tombstone {
			continue
		}
		fn(k, vals[j])
	}
}

// NormSquared returns ‖X‖_F² (maintained incrementally; see Recompute for
// the exact-resum variant used in tests).
func (t *Sparse) NormSquared() float64 {
	if t.normSq < 0 { // guard against negative drift from cancellation
		return 0
	}
	return t.normSq
}

// FrobeniusNorm returns ‖X‖_F.
func (t *Sparse) FrobeniusNorm() float64 { return math.Sqrt(t.NormSquared()) }

// RecomputeNormSquared resums ‖X‖_F² from the stored entries and refreshes
// the maintained accumulator. Useful after very long update sequences to
// shed floating-point drift. The resum walks the order-preserving
// registry: float addition is order-dependent, and any other order (a hash
// map's, say) would make the accumulator — which checkpoints capture —
// differ bit-for-bit between a process and its crash-recovered successor.
func (t *Sparse) RecomputeNormSquared() float64 {
	s := 0.0
	t.ForEachKey(func(_ uint64, v float64) {
		s += v * v
	})
	t.normSq = s
	return s
}

// Clone returns a deep copy with the same deterministic iteration order.
func (t *Sparse) Clone() *Sparse {
	out := NewSparse(t.shape)
	t.ForEachKey(func(k uint64, v float64) {
		out.SetKey(k, v)
	})
	return out
}

// EqualApprox reports whether t and o have the same shape and entries that
// agree within tol (comparing missing entries as zero).
func (t *Sparse) EqualApprox(o *Sparse, tol float64) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for m := range t.shape {
		if t.shape[m] != o.shape[m] {
			return false
		}
	}
	keys, vals := t.Entries()
	for j, k := range keys {
		if k != tombstone && math.Abs(vals[j]-o.AtKey(k)) > tol {
			return false
		}
	}
	keys, vals = o.Entries()
	for j, k := range keys {
		if k == tombstone {
			continue
		}
		if _, ok := t.all.pos[k]; !ok && math.Abs(vals[j]) > tol {
			return false
		}
	}
	return true
}

// String summarizes the tensor for debugging.
func (t *Sparse) String() string {
	return fmt.Sprintf("Sparse%v nnz=%d ‖X‖=%.4g", t.shape, t.NNZ(), t.FrobeniusNorm())
}
