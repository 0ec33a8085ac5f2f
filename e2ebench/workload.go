package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	sns "slicenstitch"
	"slicenstitch/internal/datagen"
)

// workload is one named benchmark input: a datagen preset replayed
// through one serving configuration. Every workload runs SNS-Rnd+ with
// W=10, R=20 and the sequential writer (Parallelism 0), the
// single-threaded baseline.
type workload struct {
	name   string
	preset datagen.Preset
	// traceSeed is the fixed datagen seed; the trace's fingerprint over
	// the fill and the first fpTicks online ticks is pinned below so a
	// generator change that alters the inputs fails the run.
	traceSeed int64
	fpEvents  int
	fpHash    uint64
	// rounds is how many times an untraced run sets an engine up from
	// scratch and measures it; metrics are medians over rounds.
	rounds int
	// ticksPerSecond sizes the measured phase: --seconds s is split over
	// the rounds, each replaying s·ticksPerSecond/rounds trace ticks. For
	// the open-loop workload it is also the offered speed-up (trace ticks
	// per wall second); for the closed-loop ones it is chosen so a round
	// lasts about s/rounds seconds on the reference host, while the work
	// stays a fixed function of s.
	ticksPerSecond int64
	// serve runs the engine inside snsserve, over HTTP; otherwise the
	// benchmark drives an in-process Engine.
	serve bool
	// durable opens the in-process engine with a WAL (FsyncInterval) and
	// checkpointEvery.
	durable         bool
	checkpointEvery int
	// fitnessFloor is the lowest acceptable final fitness.
	fitnessFloor float64
}

const (
	windowW = 10
	rank    = 20
	fpTicks = 100
	// Engine and tracker settings, stated here rather than left to the
	// defaults so that the engine runs and the traced replay share them.
	publishEvery = 256
	eta          = 1000.0
	alsIters     = 20
)

var workloads = []workload{
	{
		// The paper's flagship setting and the only large-state workload
		// (≈250k nonzeros): window fill, ALS and publish dominate.
		name: "taxi-paper", preset: datagen.NewYorkTaxi, traceSeed: 1,
		fpEvents: 850067, fpHash: 0x2417c381996c182a,
		rounds: 2, ticksPerSecond: 35, fitnessFloor: 0.83,
	},
	{
		// Writes beside reads over real serving layers: HTTP, the engine
		// hand-off, the WAL and publish cadence carry the latency.
		name: "divvy-serve", preset: datagen.DivvyBikes, traceSeed: 1,
		fpEvents: 105335, fpHash: 0xeaf6455f23edfd0d,
		rounds: 3, ticksPerSecond: 85, serve: true, fitnessFloor: 0.89,
	},
	{
		// Order 4 takes the generic (non-specialized) kernel path, and WAL
		// append, group commit and checkpoints take a share of capacity.
		name: "austin-durable", preset: datagen.RideAustin, traceSeed: 1,
		fpEvents: 45480, fpHash: 0x6d7e768128143e04,
		rounds: 3, ticksPerSecond: 150, durable: true, checkpointEvery: 600, fitnessFloor: 0.69,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) period() int64 { return w.preset.DefaultPeriod }

// fillTicks is the span of trace that fills the first window: W·T.
func (w *workload) fillTicks() int64 { return windowW * w.period() }

// streamConfig is the stream configuration every run of the workload
// uses, engine and replay alike; seed drives sampling and the ALS warm
// start.
func (w *workload) streamConfig(seed int64) sns.StreamConfig {
	return sns.StreamConfig{Config: sns.Config{
		Dims:      w.preset.Dims,
		W:         windowW,
		Period:    w.period(),
		Rank:      rank,
		Algorithm: sns.SNSRndPlus,
		Theta:     w.preset.DefaultTheta,
		Eta:       eta,
		ALSIters:  alsIters,
		Seed:      configSeed(seed),
	}, PublishEvery: publishEvery}
}

// configSeed maps the benchmark seed onto Config.Seed, whose zero value
// means "default 1".
func configSeed(seed int64) int64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// trace is a workload's generated input: one event batch per tick, the
// first fill of them filling the window before Start.
type trace struct {
	ticks    [][]sns.Event
	fill     int
	fpEvents int
	fpHash   uint64
}

func (tr *trace) online() [][]sns.Event { return tr.ticks[tr.fill:] }

func countEvents(ticks [][]sns.Event) int {
	n := 0
	for _, t := range ticks {
		n += len(t)
	}
	return n
}

// makeTrace generates the workload's trace for a measured phase of the
// given length. The datagen stream is fixed (traceSeed); seed relabels
// each categorical mode by a random bijection, so every seed feeds the
// program different coordinates with the same statistics.
func makeTrace(w *workload, seed int64, seconds int) *trace {
	fill := w.fillTicks()
	online := int64(seconds) * w.ticksPerSecond / int64(w.rounds)
	if online < fpTicks {
		online = fpTicks
	}
	rng := rand.New(rand.NewSource(seed))
	perms := make([][]int, len(w.preset.Dims))
	for m, d := range w.preset.Dims {
		perms[m] = rng.Perm(d)
	}
	g := datagen.NewGenerator(w.preset, w.traceSeed)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	tr := &trace{fill: int(fill), ticks: make([][]sns.Event, 0, fill+online)}
	for t := int64(0); t < fill+online; t++ {
		tuples := g.Tick(t)
		evs := make([]sns.Event, len(tuples))
		for i, tp := range tuples {
			if t < fill+fpTicks {
				tr.fpEvents++
				put(uint64(tp.Time))
				for _, c := range tp.Coord {
					put(uint64(c))
				}
				put(math.Float64bits(tp.Value))
			}
			for m, c := range tp.Coord {
				tp.Coord[m] = perms[m][c]
			}
			evs[i] = sns.Event{Coord: tp.Coord, Value: tp.Value, Time: tp.Time}
		}
		tr.ticks = append(tr.ticks, evs)
	}
	tr.fpHash = h.Sum64()
	return tr
}
