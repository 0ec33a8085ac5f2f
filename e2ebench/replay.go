package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"slicenstitch/internal/als"
	"slicenstitch/internal/core"
	"slicenstitch/internal/cpd"
	"slicenstitch/internal/mat"
	"slicenstitch/internal/stream"
	"slicenstitch/internal/window"
)

// recorder keeps spans in memory. With on false every call is a no-op,
// which is the untraced replay that trace.overhead_frac compares against.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
	batch int32
}

func (r *recorder) begin(name string, parent int32) int32 {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.t0), Parent: parent, Batch: r.batch})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r.on {
		r.spans[i].End = time.Since(r.t0)
	}
}

var applyNames = [...]string{
	window.Arrival: "core.apply.arrival",
	window.Shift:   "core.apply.shift",
	window.Expiry:  "core.apply.expiry",
}

// replayOut is what one replay of a workload's trace through the layer
// stack measured.
type replayOut struct {
	fitness     float64
	fill, start time.Duration
	online      time.Duration
	onlineCPU   time.Duration
	arrivals    int
	publishes   int
	spans       []span
	onlineFrom  int // index of the first online-phase span
	win         *window.Window
	model       *cpd.Model
}

// replay drives the trace through the layers the engine's shard drives,
// in the same order: window.Ingest/AdvanceTo with a callback into an
// SNS-Rnd+ decomposer initialised from als.Run exactly as Tracker.Start
// does, and a publish (cpd.Fitness plus a factor copy) at the shard's
// PublishEvery cadence, at Start and at the final Flush. Spans cover the
// whole replay; the online-phase timings start after Start's publish.
func replay(w *workload, tr *trace, seed int64, traced bool) *replayOut {
	cfg := w.streamConfig(seed)
	out := &replayOut{}
	rec := &recorder{on: traced, t0: time.Now()}
	win := window.New(cfg.Dims, cfg.W, cfg.Period)
	tuple := func(c []int, v float64, t int64) stream.Tuple { return stream.Tuple{Coord: c, Value: v, Time: t} }

	fillStart := time.Now()
	for k, evs := range tr.ticks[:tr.fill] {
		rec.batch = int32(k)
		s := rec.begin("window.fill", -1)
		for _, ev := range evs {
			win.AdvanceTo(ev.Time, nil)
			win.Ingest(tuple(ev.Coord, ev.Value, ev.Time))
		}
		rec.end(s)
	}
	out.fill = time.Since(fillStart)

	startAt := time.Now()
	s := rec.begin("als.start", -1)
	model := als.Run(win.X(), als.Options{Rank: cfg.Rank, MaxIters: cfg.ALSIters, Seed: cfg.Seed})
	dec := core.NewSNSRndPlus(win, model, cfg.Theta, cfg.Eta, cfg.Seed)
	rec.end(s)
	out.start = time.Since(startAt)

	// publish is the shard's publish step; count says whether it belongs
	// to the online phase (the one at Start is part of set-up).
	publish := func(count bool) {
		p := rec.begin("publish", -1)
		f := rec.begin("publish.fitness", p)
		out.fitness = cpd.Fitness(win.X(), dec.Model())
		rec.end(f)
		c := rec.begin("publish.factors", p)
		copyFactors(dec.Model())
		rec.end(c)
		rec.end(p)
		if count {
			out.publishes++
		}
	}
	publish(false)
	out.onlineFrom = len(rec.spans)

	onlineStart := time.Now()
	cpu0, _ := selfCPU()
	var parent int32 = -1
	apply := func(ch window.Change) {
		a := rec.begin(applyNames[ch.Kind], parent)
		dec.Apply(ch)
		rec.end(a)
	}
	since := 0
	for k, evs := range tr.online() {
		rec.batch = int32(tr.fill + k)
		b := rec.begin("replay.batch", -1)
		for _, ev := range evs {
			adv := rec.begin("window.advance", b)
			parent = adv
			win.AdvanceTo(ev.Time, apply)
			rec.end(adv)
			in := rec.begin("window.ingest", b)
			ch, ok := win.Ingest(tuple(ev.Coord, ev.Value, ev.Time))
			rec.end(in)
			if ok {
				parent = b
				apply(ch)
			}
		}
		rec.end(b)
		out.arrivals += len(evs)
		since += len(evs)
		if since >= cfg.PublishEvery {
			publish(true)
			since = 0
		}
	}
	publish(true) // the final Flush
	out.online = time.Since(onlineStart)
	cpu1, _ := selfCPU()
	out.onlineCPU = cpu1 - cpu0
	out.spans, out.win, out.model = rec.spans, win, dec.Model()
	return out
}

// copyFactors is the factor copy of a publish (Tracker.Factors).
func copyFactors(m *cpd.Model) [][][]float64 {
	out := make([][][]float64, 0, len(m.Factors))
	for _, f := range m.Factors {
		rows := make([][]float64, f.Rows())
		for i := range rows {
			rows[i] = append([]float64(nil), f.Row(i)...)
		}
		out = append(out, rows)
	}
	return out
}

// traceLayers derives the window, core, publish and remainder metrics of
// the online phase from the spans of a traced replay.
func traceLayers(ro *replayOut) map[string]float64 {
	out := map[string]float64{}
	spans := make([]span, 0, len(ro.spans)-ro.onlineFrom)
	for _, s := range ro.spans[ro.onlineFrom:] {
		if s.Parent >= 0 {
			s.Parent -= int32(ro.onlineFrom)
		}
		spans = append(spans, s)
	}
	self := selfTimes(spans)
	online := ro.online
	var applies []float64
	var n [3]int
	var sum [3]time.Duration
	for _, s := range spans {
		for k, name := range applyNames {
			if s.Name == name {
				d := s.End - s.Start
				n[k]++
				sum[k] += d
				applies = append(applies, float64(d)/1e3)
			}
		}
	}
	for k, name := range []string{"arrival", "shift", "expiry"} {
		if n[k] > 0 {
			out["core.apply_us_mean."+name] = float64(sum[k]) / float64(n[k]) / 1e3
		}
	}
	out["core.apply_us_p99"] = percentileAt(applies, 0.99)
	windowSelf := self["window.advance"] + self["window.ingest"]
	coreSelf := sum[0] + sum[1] + sum[2]
	pubSelf := self["publish"] + self["publish.fitness"] + self["publish.factors"]
	frac := func(d time.Duration) float64 { return float64(d) / float64(online) }
	out["window.self_frac"] = frac(windowSelf)
	out["core.self_frac"] = frac(coreSelf)
	out["publish.self_frac"] = frac(pubSelf)
	out["trace.other_frac"] = 1 - frac(windowSelf+coreSelf+pubSelf)
	out["window.self_us_per_event"] = float64(windowSelf) / 1e3 / float64(ro.arrivals)
	out["window.changes_per_event"] = float64(n[0]+n[1]+n[2]) / float64(ro.arrivals)
	var fit, fac []float64
	for _, s := range spans {
		switch s.Name {
		case "publish.fitness":
			fit = append(fit, ms(s.End-s.Start))
		case "publish.factors":
			fac = append(fac, ms(s.End-s.Start))
		}
	}
	out["publish.count"] = float64(ro.publishes)
	out["publish.fitness_ms_mean"] = summarize(fit).Mean
	out["publish.factors_ms_mean"] = summarize(fac).Mean
	out["window.fill_s"] = ro.fill.Seconds()
	out["als.start_s"] = ro.start.Seconds()
	return out
}

// kernelTimes times the bottom rung on the replay's final window and
// model: one MTTKRP row through cpd.ForShape's kernel (every row of mode
// 0 in turn) and one mat.SymSolver solve of the time-mode normal
// equations. Each is the median of five timed passes.
func kernelTimes(ro *replayOut) (mttkrpNS, solveNS float64) {
	x, m := ro.win.X(), ro.model
	r := m.Rank()
	k := cpd.ForShape(m.Order(), r)
	dst, scratch := make([]float64, r), make([]float64, r)
	rows := m.Factors[0].Rows()
	var mt, so []float64
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		reps := 0
		for time.Since(start) < 20*time.Millisecond {
			for i := 0; i < rows; i++ {
				k.MTTKRPRow(x, m.Factors, 0, i, dst, scratch)
			}
			reps += rows
		}
		mt = append(mt, float64(time.Since(start).Nanoseconds())/float64(reps))
	}
	grams := m.Grams()
	h := mat.New(r, r)
	h.Fill(1)
	for mode := 0; mode < m.Order()-1; mode++ {
		mat.HadamardInPlace(h, grams[mode])
	}
	b := append([]float64(nil), m.Factors[m.Order()-1].Row(0)...)
	solver := mat.NewSymSolver(r)
	for pass := 0; pass < 5; pass++ {
		const reps = 2000
		start := time.Now()
		for i := 0; i < reps; i++ {
			solver.Solve(h, b)
		}
		so = append(so, float64(time.Since(start).Nanoseconds())/reps)
	}
	return percentileAt(mt, 0.5), percentileAt(so, 0.5)
}

// writeSpans writes a traced replay's spans as CSV: name, start and end in
// ns from the replay's start, parent index, batch (trace tick).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "name,start_ns,end_ns,parent,batch")
	for _, s := range spans {
		fmt.Fprintf(bw, "%s,%d,%d,%d,%d\n", s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds(), s.Parent, s.Batch)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
