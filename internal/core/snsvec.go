package core

import (
	"slicenstitch/internal/cpd"
	"slicenstitch/internal/mat"
	"slicenstitch/internal/rng"
	"slicenstitch/internal/tensor"
	"slicenstitch/internal/window"
)

// SNSVec is SLICENSTITCH-VECTOR (Algorithms 3–4): per event it refreshes
// only the factor rows that approximate the changed entries. Time-mode rows
// move by the approximated additive rule Eq. (9); non-time rows are re-solved
// exactly by the least-squares rule Eq. (12); Gram matrices follow Eq. (13).
// Factors are left unnormalized, which is what eventually makes the method
// numerically unstable on some streams (Observation 3) — that is faithful
// to the paper, and fixed by SNSVecPlus.
type SNSVec struct {
	base
}

// NewSNSVec builds an SNS_VEC tracker from an initial model (cloned; its λ
// is folded into the factors since SNS_VEC skips normalization).
func NewSNSVec(win *window.Window, init *cpd.Model) *SNSVec {
	b := newBase(win, init)
	foldLambda(b.model)
	b.grams = b.model.Grams()
	return &SNSVec{base: b}
}

// Name returns "SNS-Vec".
func (s *SNSVec) Name() string { return "SNS-Vec" }

// Apply runs the common outline of Algorithm 3.
//
//sns:hotpath
func (s *SNSVec) Apply(ch window.Change) {
	applyOutline(&s.base, s, ch)
}

func (s *SNSVec) beginEvent(window.Change) {}

// updateRow is updateRowVec of Algorithm 4 as the staged sequence
// prepare → solve → commit. All intermediates live in the shared
// sequential workspace, so steady-state updates allocate nothing.
func (s *SNSVec) updateRow(m, i int, ch window.Change) {
	p := s.prepareRow(m, i)
	s.solveRow(m, i, ch, p, nil, false, &s.ws)
	s.commitRow(m, i, p)
}

func (s *SNSVec) prepareRow(m, i int) []float64 {
	return s.savePrev(s.model.Factors[m].Row(i))
}

func (s *SNSVec) sampleFor(_, _ int, dst []uint64) ([]uint64, bool) {
	return dst, false
}

// solveRow computes the new row values in place without touching the
// Grams (commitRow applies those).
func (s *SNSVec) solveRow(m, i int, ch window.Change, p []float64, _ []uint64, _ bool, ws *rowWS) {
	row := s.model.Factors[m].Row(i)
	h := cpd.GramsExceptInto(ws.hBuf, s.grams, m)
	if m == s.timeMode() {
		// Eq. (9): A⁽ᴹ⁾(i,:) += ΔX_(M)(i,:) K⁽ᴹ⁾ H⁽ᴹ⁾†.
		u := s.deltaTerm(ch, m, i, ws.rowBuf, ws.krBuf)
		delta := ws.solver.Solve(h, u)
		for k := range row {
			row[k] = p[k] + delta[k]
		}
	} else {
		// Eq. (12): A⁽ᵐ⁾(i,:) ← (X+ΔX)_(m)(i,:) K⁽ᵐ⁾ H⁽ᵐ⁾†.
		u := s.kern.MTTKRPRow(s.win.X(), s.model.Factors, m, i, ws.dataBuf, ws.krBuf)
		copy(row, ws.solver.Solve(h, u))
	}
}

func (s *SNSVec) commitRow(m, i int, p []float64) {
	updateGram(s.grams[m], p, s.model.Factors[m].Row(i))
}

// savedRow is a per-event backup of one factor row, used to evaluate the
// event-start model X̃ = ⟦A_prev⟧ (Section V-C).
type savedRow struct {
	mode, idx int
	vals      []float64
}

// containsKey reports whether k is among keys — the membership test for
// the tiny key lists of the sampler (an event's ΔX cells, a θ-sample).
// A linear scan beats a map for lists this small and allocates nothing.
func containsKey(keys []uint64, k uint64) bool {
	for _, e := range keys {
		if e == k {
			return true
		}
	}
	return false
}

// sampleSliceCells draws up to theta distinct cell keys uniformly at random
// from the dense slice {J : j_m = i} of x — Algorithm 4 line 12: "θ indices
// of X chosen uniformly at random, while fixing the m-th mode index to i_m".
// The sample space is every cell of the slice, zeros included: the zero
// cells' residuals (−x̃_J) are what balance the nonzero cells' corrections;
// sampling only nonzeros would bias every update upward and diverge on
// sparse streams. Keys in exclude (the ΔX cells, footnote 2) are skipped.
// When the slice has no more than theta cells, all (non-excluded) cells are
// returned, making X̃+X̄ exact on the slice.
//
// The caller supplies reusable workspace: keys are appended to dst[:0]
// (returned) and coord is an order-M coordinate scratch — so the sampler
// allocates nothing in steady state. Rejection-sampling duplicates are
// detected by scanning the accepted keys themselves (≤ θ of them, and
// excluded keys never enter the accepted list), which draws and rejects in
// exactly the same sequence the former seen-map implementation did.
func sampleSliceCells(x *tensor.Sparse, m, i, theta int, rng *rng.RNG, exclude []uint64, dst []uint64, coord []int) []uint64 {
	order := x.Order()
	total := 1
	for n := 0; n < order; n++ {
		if n == m {
			continue
		}
		total *= x.Dim(n)
		if total > 1<<30 {
			total = 1 << 30 // cap: plenty to guarantee the sampling path
			break
		}
	}
	out := dst[:0]
	for n := range coord {
		coord[n] = 0
	}
	coord[m] = i
	if total <= theta {
		// Enumerate the whole slice in lexicographic order (last mode
		// fastest) with an odometer — closure-free so nothing escapes.
		for {
			k := x.Key(coord)
			if !containsKey(exclude, k) {
				out = append(out, k)
			}
			n := order - 1
			for n >= 0 {
				if n == m {
					n--
					continue
				}
				coord[n]++
				if coord[n] < x.Dim(n) {
					break
				}
				coord[n] = 0
				n--
			}
			if n < 0 {
				break
			}
		}
		return out
	}
	// Rejection sampling without replacement.
	attempts := 0
	maxAttempts := 20*theta + 64
	for len(out) < theta && attempts < maxAttempts {
		attempts++
		for n := 0; n < order; n++ {
			if n != m {
				coord[n] = rng.Intn(x.Dim(n))
			}
		}
		k := x.Key(coord)
		if containsKey(out, k) {
			continue
		}
		if containsKey(exclude, k) {
			continue
		}
		out = append(out, k)
	}
	return out
}

// prevTracker maintains the per-event A_prev view required by the sampling
// variants: U⁽ᵐ⁾ = A_prev⁽ᵐ⁾ᵀA⁽ᵐ⁾ (reset to Q⁽ᵐ⁾ at event start,
// Algorithm 3 line 1, then advanced by Eq. (17)/(26)) plus lazy backups of
// the few rows that change within the event. Backup rows come from a
// per-tracker pool (an event touches at most order+1 rows); sampling and
// prediction scratch lives in the executing workspace (rowWS), keeping
// the sampled update allocation-free in steady state and race-free under
// the parallel time-pair path.
type prevTracker struct {
	prevGrams  []*mat.Dense
	backups    []savedRow
	backupPool [][]float64
	exclude    []uint64 // the event's ΔX cell keys (tiny; scanned)
}

func newPrevTracker(b *base) prevTracker {
	pt := prevTracker{
		exclude: make([]uint64, 0, 4),
	}
	for _, g := range b.grams {
		pt.prevGrams = append(pt.prevGrams, g.Clone())
	}
	return pt
}

// begin resets the tracker for a new event and records the ΔX cells to
// exclude from sampling (footnote 2 of the paper).
func (pt *prevTracker) begin(b *base, ch window.Change) {
	for m, g := range b.grams {
		pt.prevGrams[m].CopyFrom(g)
	}
	pt.backups = pt.backups[:0]
	pt.exclude = pt.exclude[:0]
	x := b.win.X()
	for _, cell := range ch.Cells {
		pt.exclude = append(pt.exclude, x.Key(cell.Coord))
	}
}

// saveRow snapshots a row before its update into a pooled buffer and
// returns the snapshot (valid until the next begin).
func (pt *prevTracker) saveRow(m, i int, row []float64) []float64 {
	var p []float64
	if n := len(pt.backups); n < len(pt.backupPool) {
		p = pt.backupPool[n]
	} else {
		p = make([]float64, len(row))
		pt.backupPool = append(pt.backupPool, p)
	}
	copy(p, row)
	pt.backups = append(pt.backups, savedRow{mode: m, idx: i, vals: p})
	return p
}

// prevRow returns A_prev⁽ᵐ⁾(i,:): the backed-up copy when the row changed
// earlier in this event, the live row otherwise.
func (pt *prevTracker) prevRow(b *base, m, i int) []float64 {
	for _, bk := range pt.backups {
		if bk.mode == m && bk.idx == i {
			return bk.vals
		}
	}
	return b.model.Factors[m].Row(i)
}

// predictPrev evaluates x̃_J under the event-start factors. Row lookups are
// hoisted out of the rank loop — this sits on the θ-sampling hot path.
// Order-3 models run the selected (possibly fixed-rank) fused kernel; the
// multiply chain is the generic loop's exactly. rows is order-length
// lookup scratch from the executing workspace (unused on the fused path).
func (pt *prevTracker) predictPrev(b *base, coord []int, rows [][]float64) float64 {
	if p3 := b.kern.Predict3; p3 != nil {
		return p3(pt.prevRow(b, 0, coord[0]), pt.prevRow(b, 1, coord[1]), pt.prevRow(b, 2, coord[2]))
	}
	for m := range b.model.Factors {
		rows[m] = pt.prevRow(b, m, coord[m])
	}
	r := b.model.Rank()
	s := 0.0
	for k := 0; k < r; k++ {
		p := 1.0
		for _, row := range rows {
			p *= row[k]
		}
		s += p
	}
	return s
}

// SNSRnd is SLICENSTITCH-RANDOM (Algorithms 3–4): like SNS_VEC, but a row
// whose degree exceeds the threshold θ is refreshed from θ sampled nonzeros
// via the approximated rule Eq. (16), capping the per-event cost at
// O(M²Rθ + M²R² + MR³) — constant time for fixed M, R, θ (Theorem 5).
type SNSRnd struct {
	base
	prevTracker
	theta int
	rng   *rng.RNG
}

// NewSNSRnd builds an SNS_RND tracker. theta is the sampling threshold θ;
// seed drives the sampler (a serializable internal/rng generator, so
// checkpoints can capture the exact draw position).
func NewSNSRnd(win *window.Window, init *cpd.Model, theta int, seed int64) *SNSRnd {
	if theta < 1 {
		panic("core: SNSRnd theta must be ≥ 1")
	}
	b := newBase(win, init)
	foldLambda(b.model)
	b.grams = b.model.Grams()
	s := &SNSRnd{base: b, theta: theta, rng: rng.New(seed)}
	s.prevTracker = newPrevTracker(&s.base)
	return s
}

// Name returns "SNS-Rnd".
func (s *SNSRnd) Name() string { return "SNS-Rnd" }

// Apply runs the common outline of Algorithm 3.
//
//sns:hotpath
func (s *SNSRnd) Apply(ch window.Change) {
	applyOutline(&s.base, s, ch)
}

func (s *SNSRnd) beginEvent(ch window.Change) {
	s.begin(&s.base, ch)
}

// updateRow is updateRowRan of Algorithm 4 as the staged sequence
// prepare → sample → solve → commit. Intermediates live in the shared
// sequential workspace; steady-state updates allocate nothing (only the
// rare singular-system pseudoinverse fallback does).
func (s *SNSRnd) updateRow(m, i int, ch window.Change) {
	p := s.prepareRow(m, i)
	sample, sampled := s.sampleFor(m, i, s.ws.sampleBuf[:0])
	s.ws.sampleBuf = sample
	s.solveRow(m, i, ch, p, sample, sampled, &s.ws)
	s.commitRow(m, i, p)
}

func (s *SNSRnd) prepareRow(m, i int) []float64 {
	return s.saveRow(m, i, s.model.Factors[m].Row(i))
}

// sampleFor draws the θ-sample when row (m,i)'s degree exceeds θ — the
// sole RNG consumer of the row update, so pre-drawing for the parallel
// pair in row order reproduces the sequential RNG stream exactly.
func (s *SNSRnd) sampleFor(m, i int, dst []uint64) ([]uint64, bool) {
	x := s.win.X()
	if x.Deg(m, i) <= s.theta {
		return dst, false
	}
	return sampleSliceCells(x, m, i, s.theta, s.rng, s.exclude, dst, s.ws.coordBuf), true
}

// solveRow computes the new row values in place without touching the
// Grams or the RNG (commitRow and sampleFor own those).
func (s *SNSRnd) solveRow(m, i int, ch window.Change, p []float64, sample []uint64, sampled bool, ws *rowWS) {
	row := s.model.Factors[m].Row(i)
	x := s.win.X()
	h := cpd.GramsExceptInto(ws.hBuf, s.grams, m)
	if !sampled {
		// Exact path, Eq. (12).
		u := s.kern.MTTKRPRow(x, s.model.Factors, m, i, ws.dataBuf, ws.krBuf)
		copy(row, ws.solver.Solve(h, u))
	} else {
		// Sampled path, Eq. (16):
		// A⁽ᵐ⁾(i,:) ← A⁽ᵐ⁾(i,:) H_prev H† + (X̄+ΔX)_(m)(i,:) K⁽ᵐ⁾ H†.
		hPrev := cpd.GramsExceptInto(ws.huBuf, s.prevGrams, m)
		u := mat.VecMulInto(ws.dataBuf, p, hPrev)
		vals := ws.sampleVals(x, sample)
		for j, key := range sample {
			coord := x.Coord(key, ws.coordBuf)
			resid := vals[j] - s.predictPrev(&s.base, coord, ws.rowsBuf)
			s.krAxpy(u, resid, coord, m, ws.krBuf)
		}
		dt := s.deltaTerm(ch, m, i, ws.rowBuf, ws.krBuf)
		for k := range u {
			u[k] += dt[k]
		}
		copy(row, ws.solver.Solve(h, u))
	}
}

func (s *SNSRnd) commitRow(m, i int, p []float64) {
	row := s.model.Factors[m].Row(i)
	updateGram(s.grams[m], p, row)
	updatePrevGram(s.prevGrams[m], p, row)
}
