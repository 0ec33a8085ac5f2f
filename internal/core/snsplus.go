package core

import (
	"math"

	"slicenstitch/internal/cpd"
	"slicenstitch/internal/mat"
	"slicenstitch/internal/rng"
	"slicenstitch/internal/window"
)

// cEps is the smallest coefficient c⁽ᵐ⁾_k (Eq. (20)) a coordinate-descent
// step will divide by; below it the coordinate is left unchanged. c is a
// product of squared column norms, so a value this small means the column
// has collapsed and the least-squares subproblem is degenerate.
const cEps = 1e-300

// flushEps is the smallest factor-entry magnitude a coordinate-descent step
// will store; anything below is flushed to exact zero. Columns beyond the
// data's effective rank decay multiplicatively toward zero without reaching
// it, and once entries drift below ~1e-308 every multiply in the row kernels
// operates on subnormals — a ~50× slowdown on x86. 1e-150 is far below any
// numerically meaningful loading yet high enough that a product of two
// surviving entries (≥ 1e-300) still lands in the normal range.
const flushEps = 1e-150

// clip applies the SNS⁺ stabilization (Algorithm 5, lines 5/15): values are
// forced into [lo, η]. Non-finite values — which a degenerate division can
// produce — fall back to the previous value, keeping the objective bounded.
// lo is −η normally and 0 in nonnegative mode; because the 1-D subproblem
// of Eq. (19) is convex, projecting its minimizer onto any interval never
// increases the objective (the footnote-3 argument applies unchanged).
// Magnitudes below flushEps are projected to 0 — the interval argument
// covers this too, treating it as projection onto {0} ∪ [flushEps, η] (the
// objective difference between 0 and a sub-flushEps minimizer is O(1e-300)).
func clip(v, old, lo, eta float64) float64 {
	if math.IsNaN(v) {
		return old
	}
	if v > eta {
		return eta
	}
	if v < lo {
		return lo
	}
	if v < flushEps && v > -flushEps {
		return 0
	}
	return v
}

// bumpGram applies Eqs. (24)–(25) after coordinate k of row `row` moved
// from oldV to newV: q_kk += a² − b², and q_rk = q_kr += a_r·(a−b) for r≠k,
// with a_r the live (possibly already-updated) row values. The writes go
// straight into the backing data — one strided column pass and one
// contiguous row pass — touching exactly the entries (and adding exactly
// the values) the accessor-based form did.
func bumpGram(q *mat.Dense, row []float64, k int, oldV, newV float64) {
	d := newV - oldV
	if d == 0 {
		return
	}
	n := len(row)
	qd := q.Data()
	qk := qd[k*n : k*n+n]
	for r := 0; r < k; r++ {
		b := row[r] * d
		qd[r*n+k] += b
		qk[r] += b
	}
	for r := k + 1; r < n; r++ {
		b := row[r] * d
		qd[r*n+k] += b
		qk[r] += b
	}
	qk[k] += newV*newV - oldV*oldV
}

// bumpPrevGram applies Eq. (26) after coordinate k moved from p[k] to newV:
// u_rk += b_r·(a − b) for every r, with b the event-start row p.
func bumpPrevGram(u *mat.Dense, p []float64, k int, newV float64) {
	d := newV - p[k]
	if d == 0 {
		return
	}
	n := len(p)
	ud := u.Data()
	for r, pr := range p {
		ud[r*n+k] += pr * d
	}
}

// replayBumps re-applies the Gram updates of one coordinate-descent pass
// after the fact, given only the event-start row p and the final row. The
// adds bumpGram issues at coordinate k are a deterministic function of
// (p, final row): it reads the live row with coordinates < k already final
// and coordinates > k still at p, which live reconstructs by flipping one
// coordinate per step. Coordinates the pass skipped (or moved nowhere)
// have row[k] == p[k] and replay as the same no-op, so the replay adds
// exactly the values the in-loop calls added, to the same entries, in the
// same order — bit-identical, which is what lets the parallel path defer
// Gram writes out of the concurrent solves (see parallel.go). u is the
// prev-Gram U⁽ᵐ⁾ for the Rnd⁺ variant, nil for Vec⁺.
func replayBumps(q, u *mat.Dense, p, row, live []float64) {
	copy(live, p)
	for k := range row {
		v := row[k]
		old := live[k]
		live[k] = v
		bumpGram(q, live, k, old, v)
		if u != nil {
			bumpPrevGram(u, p, k, v)
		}
	}
}

// SNSVecPlus is SNS⁺_VEC (Algorithm 5, updateRowVec+): the stable variant
// of SNS_VEC. Rows are refreshed by coordinate descent — Eq. (22) for the
// time mode, Eq. (21) for the others — with every entry clipped to [−η, η],
// which never increases the local objective (footnote 3) and prevents the
// numeric blow-ups of the unnormalized LS updates.
type SNSVecPlus struct {
	base
	eta float64
	// NonNegative constrains every updated entry to [0, η] instead of
	// [−η, η] — an extension for count data where negative factor loadings
	// have no interpretation (cf. CP-stream's nonnegativity option). The
	// projection argument of footnote 3 applies to any interval, so the
	// stability guarantee is unchanged.
	NonNegative bool
}

// NewSNSVecPlus builds an SNS⁺_VEC tracker with clipping threshold eta.
func NewSNSVecPlus(win *window.Window, init *cpd.Model, eta float64) *SNSVecPlus {
	if eta <= 0 {
		panic("core: SNSVecPlus eta must be positive")
	}
	b := newBase(win, init)
	foldLambda(b.model)
	b.grams = b.model.Grams()
	return &SNSVecPlus{base: b, eta: eta}
}

// Name returns "SNS-Vec+".
func (s *SNSVecPlus) Name() string { return "SNS-Vec+" }

// Apply runs the common outline of Algorithm 3.
//
//sns:hotpath
func (s *SNSVecPlus) Apply(ch window.Change) {
	applyOutline(&s.base, s, ch)
}

func (s *SNSVecPlus) beginEvent(window.Change) {}

// updateRow is updateRowVec+ of Algorithm 5 as the staged sequence
// prepare → solve → commit. Intermediates live in the shared sequential
// workspace, so steady-state updates allocate nothing.
func (s *SNSVecPlus) updateRow(m, i int, ch window.Change) {
	p := s.prepareRow(m, i)
	s.solveRow(m, i, ch, p, nil, false, &s.ws)
	s.commitRow(m, i, p)
}

func (s *SNSVecPlus) prepareRow(m, i int) []float64 {
	return s.savePrev(s.model.Factors[m].Row(i))
}

func (s *SNSVecPlus) sampleFor(_, _ int, dst []uint64) ([]uint64, bool) {
	return dst, false
}

// solveRow runs the coordinate-descent pass, updating the factor row in
// place. Gram maintenance is deferred to commitRow — sound because the
// pass never reads Q⁽ᵐ⁾ or U⁽ᵐ⁾ of its own mode (H excludes mode m), so
// deferral changes no operand of any floating-point operation.
func (s *SNSVecPlus) solveRow(m, i int, ch window.Change, p []float64, _ []uint64, _ bool, ws *rowWS) {
	row := s.model.Factors[m].Row(i)
	h := cpd.GramsExceptInto(ws.hBuf, s.grams, m)
	timeMode := m == s.timeMode()
	// The per-coordinate data term is constant across the coordinate loop:
	// Σ_J Δx_J·Π_{n≠m} a_{j_n k} for the time mode (Eq. (22)), and
	// Σ_{J∈Ω} (x_J+Δx_J)·Π_{n≠m} a_{j_n k} for the others (Eq. (21)).
	var data []float64
	if timeMode {
		data = s.deltaTerm(ch, m, i, ws.rowBuf, ws.krBuf)
	} else {
		data = s.kern.MTTKRPRow(s.win.X(), s.model.Factors, m, i, ws.dataBuf, ws.krBuf)
	}
	lo := -s.eta
	if s.NonNegative {
		lo = 0
	}
	// The d/e dot products walk row k of H instead of column k: grams are
	// maintained bitwise-symmetric (every update adds identical values to
	// (i,j) and (j,i)), so H(r,k) = H(k,r) exactly and the contiguous form
	// accumulates the same sum in the same order.
	rr := len(row)
	hd := h.Data()
	for k := 0; k < rr; k++ {
		hk := hd[k*rr : k*rr+rr]
		c := hk[k]
		if c < cEps || math.IsNaN(c) {
			continue
		}
		// d⁽ᵐ⁾_{i k} over the live row (earlier coordinates already moved).
		d := 0.0
		for r := 0; r < k; r++ {
			d += row[r] * hk[r]
		}
		for r := k + 1; r < rr; r++ {
			d += row[r] * hk[r]
		}
		num := data[k] - d
		if timeMode {
			// e⁽ᵐ⁾_{i k} with b = event-start row p; U⁽ⁿ⁾ = Q⁽ⁿ⁾ for the
			// non-time modes because the outline updates the time mode
			// first, so H doubles as ∗_{n≠m} U⁽ⁿ⁾ here.
			e := 0.0
			for r, pr := range p {
				e += pr * hk[r]
			}
			num += e
		}
		row[k] = clip(num/c, row[k], lo, s.eta)
	}
}

func (s *SNSVecPlus) commitRow(m, i int, p []float64) {
	replayBumps(s.grams[m], nil, p, s.model.Factors[m].Row(i), s.replayBuf)
}

// SNSRndPlus is SNS⁺_RND (Algorithm 5, updateRowRan+): the stable variant
// of SNS_RND. High-degree rows are refreshed from θ sampled nonzeros via
// Eq. (23); low-degree rows use the exact Eq. (21); all entries are clipped
// to [−η, η]. With M, R, θ constant its per-event cost is O(1) (Theorem 7),
// making it the fastest family member — the one behind the paper's headline
// 464× speed-up.
type SNSRndPlus struct {
	base
	prevTracker
	theta int
	eta   float64
	rng   *rng.RNG
	// NonNegative constrains every updated entry to [0, η]; see
	// SNSVecPlus.NonNegative.
	NonNegative bool
}

// NewSNSRndPlus builds an SNS⁺_RND tracker with sampling threshold theta
// and clipping threshold eta.
func NewSNSRndPlus(win *window.Window, init *cpd.Model, theta int, eta float64, seed int64) *SNSRndPlus {
	if theta < 1 {
		panic("core: SNSRndPlus theta must be ≥ 1")
	}
	if eta <= 0 {
		panic("core: SNSRndPlus eta must be positive")
	}
	b := newBase(win, init)
	foldLambda(b.model)
	b.grams = b.model.Grams()
	s := &SNSRndPlus{base: b, theta: theta, eta: eta, rng: rng.New(seed)}
	s.prevTracker = newPrevTracker(&s.base)
	return s
}

// Name returns "SNS-Rnd+".
func (s *SNSRndPlus) Name() string { return "SNS-Rnd+" }

// Apply runs the common outline of Algorithm 3.
//
//sns:hotpath
func (s *SNSRndPlus) Apply(ch window.Change) {
	applyOutline(&s.base, s, ch)
}

func (s *SNSRndPlus) beginEvent(ch window.Change) {
	s.begin(&s.base, ch)
}

// updateRow is updateRowRan+ of Algorithm 5 as the staged sequence
// prepare → sample → solve → commit. Intermediates live in the shared
// sequential workspace, so steady-state updates allocate nothing — the
// property behind the zero-allocs/op hot-path benchmark.
func (s *SNSRndPlus) updateRow(m, i int, ch window.Change) {
	p := s.prepareRow(m, i)
	sample, sampled := s.sampleFor(m, i, s.ws.sampleBuf[:0])
	s.ws.sampleBuf = sample
	s.solveRow(m, i, ch, p, sample, sampled, &s.ws)
	s.commitRow(m, i, p)
}

func (s *SNSRndPlus) prepareRow(m, i int) []float64 {
	return s.saveRow(m, i, s.model.Factors[m].Row(i))
}

// sampleFor draws the θ-sample when row (m,i)'s degree exceeds θ — the
// sole RNG consumer of the row update (see SNSRnd.sampleFor).
func (s *SNSRndPlus) sampleFor(m, i int, dst []uint64) ([]uint64, bool) {
	x := s.win.X()
	if x.Deg(m, i) <= s.theta {
		return dst, false
	}
	return sampleSliceCells(x, m, i, s.theta, s.rng, s.exclude, dst, s.ws.coordBuf), true
}

// solveRow runs the coordinate-descent pass, updating the factor row in
// place. Gram and prev-Gram maintenance is deferred to commitRow — sound
// because the pass never reads Q⁽ᵐ⁾ or U⁽ᵐ⁾ of its own mode (both H and
// H_u exclude mode m), so deferral changes no operand of any
// floating-point operation.
func (s *SNSRndPlus) solveRow(m, i int, ch window.Change, p []float64, sample []uint64, sampled bool, ws *rowWS) {
	row := s.model.Factors[m].Row(i)
	x := s.win.X()
	h := cpd.GramsExceptInto(ws.hBuf, s.grams, m)
	lo := -s.eta
	if s.NonNegative {
		lo = 0
	}
	var data []float64
	var hud []float64
	if !sampled {
		// Exact data term of Eq. (21).
		data = s.kern.MTTKRPRow(x, s.model.Factors, m, i, ws.dataBuf, ws.krBuf)
	} else {
		// Sampled residual + ΔX term of Eq. (23), plus
		// H_u = ∗_{n≠m} U⁽ⁿ⁾ for the e-term.
		hud = cpd.GramsExceptInto(ws.huBuf, s.prevGrams, m).Data()
		data = s.deltaTerm(ch, m, i, ws.dataBuf, ws.krBuf)
		vals := ws.sampleVals(x, sample)
		for j, key := range sample {
			coord := x.Coord(key, ws.coordBuf)
			resid := vals[j] - s.predictPrev(&s.base, coord, ws.rowsBuf)
			s.krAxpy(data, resid, coord, m, ws.krBuf)
		}
	}
	// Row-k access to H is exact (grams stay bitwise-symmetric; see
	// SNSVecPlus.solveRow). H_u is NOT symmetric — its column k is read
	// with an explicit stride.
	rr := len(row)
	hd := h.Data()
	for k := 0; k < rr; k++ {
		hk := hd[k*rr : k*rr+rr]
		c := hk[k]
		if c < cEps || math.IsNaN(c) {
			continue
		}
		d := 0.0
		for r := 0; r < k; r++ {
			d += row[r] * hk[r]
		}
		for r := k + 1; r < rr; r++ {
			d += row[r] * hk[r]
		}
		num := data[k] - d
		if sampled {
			// e⁽ᵐ⁾_{i k} from Eq. (20) with b = event-start row p.
			e := 0.0
			for r, pr := range p {
				e += pr * hud[r*rr+k]
			}
			num += e
		}
		row[k] = clip(num/c, row[k], lo, s.eta)
	}
}

func (s *SNSRndPlus) commitRow(m, i int, p []float64) {
	replayBumps(s.grams[m], s.prevGrams[m], p, s.model.Factors[m].Row(i), s.replayBuf)
}
