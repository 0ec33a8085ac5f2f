package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	sns "slicenstitch"
)

// target is the system under test as the load generator sees it: the
// in-process Engine or an snsserve process over HTTP.
type target interface {
	// push ingests one trace tick's batch.
	push(ctx context.Context, tick int, evs []sns.Event) error
	flush(ctx context.Context) error
	// poll reads the published stream time and the mailbox depth.
	poll(ctx context.Context) (status, error)
	status(ctx context.Context) (status, error)
	// cpu is the CPU time (user+sys) used so far by the process that
	// holds the engine; memMB its peak RSS.
	cpu() (time.Duration, error)
	memMB() (float64, error)
}

// predictor evaluates a batch of queries against one published model.
type predictor interface {
	predict(ctx context.Context) error
}

type status struct {
	Now          int64   `json:"streamNow"`
	Ingested     uint64  `json:"ingested"`
	IngestErrors uint64  `json:"ingestErrors"`
	Fitness      float64 `json:"fitness"`
	QueueDepth   int     `json:"queueDepth"`
}

// Reader schedule: one slot every pollEvery, every predictEvery-th slot a
// batch predict of predictQueries cells, the others a freshness poll.
const (
	pollEvery      = 5 * time.Millisecond
	predictEvery   = 4
	predictQueries = 32
)

// phase is everything the measured phase of one engine run observed.
type phase struct {
	events    int
	wall      time.Duration
	cpu       time.Duration
	ingest    []float64 // ms from each tick's due instant to the ingest call's return
	fresh     []float64 // ms from each tick's due instant to the first poll that saw it
	missed    int       // ticks no poll ever saw
	predict   []float64 // ms per batch predict, from its due instant
	genLag    []float64 // ms each open-loop ingest started after its due instant
	readLag   []float64 // ms each reader slot started after its due instant
	depth     []int     // mailbox depth seen by each poll (by the producer after each push, without a reader)
	attempted int64
	failed    int64
	pushBlock time.Duration
	lastTime  int64
	// steal is the share of the host's CPU time the hypervisor stole
	// during the phase.
	steal float64
}

// queryCoords draws the fixed predict batch for a run.
func queryCoords(dims []int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([][]int, predictQueries)
	for i := range out {
		c := make([]int, len(dims))
		for m, d := range dims {
			c[m] = rng.Intn(d)
		}
		out[i] = c
	}
	return out
}

// measure replays ticks into tgt. With rate > 0 the producer is open loop
// (tick k is due at k/rate seconds); otherwise it is closed loop (each
// tick is due when the previous ingest call returned). With rd non-nil a
// reader runs beside the producer, open loop at one slot per pollEvery;
// without one the producer reads the mailbox depth after each push.
func measure(ctx context.Context, tgt target, ticks [][]sns.Event, rate float64, rd predictor) (*phase, error) {
	ph := &phase{}
	for _, evs := range ticks {
		if len(evs) > 0 {
			ph.lastTime = evs[0].Time
		}
	}
	cpu0, err := tgt.cpu()
	if err != nil {
		return nil, err
	}
	steal0, _ := readSteal()
	start := time.Now()
	readerDone := make(chan *readerOut, 1)
	stop := make(chan struct{})
	if rd != nil {
		go func() { readerDone <- runReader(ctx, tgt, rd, start, ph.lastTime, stop) }()
	} else {
		readerDone <- &readerOut{}
	}

	var sends []tickSend
	for k, evs := range ticks {
		if err := ctx.Err(); err != nil {
			close(stop)
			<-readerDone
			return nil, err
		}
		if len(evs) == 0 {
			continue
		}
		var due time.Duration
		if rate > 0 {
			due = time.Duration(float64(k) / rate * float64(time.Second))
			if d := due - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			ph.genLag = append(ph.genLag, ms(time.Since(start)-due))
		} else {
			due = time.Since(start)
		}
		err := tgt.push(ctx, k, evs)
		done := time.Since(start)
		ph.pushBlock += done - due
		ph.attempted += int64(len(evs))
		if err != nil {
			ph.failed += int64(len(evs))
			continue
		}
		ph.events += len(evs)
		ph.ingest = append(ph.ingest, ms(done-due))
		sends = append(sends, tickSend{Time: evs[0].Time, Due: due})
		if rd == nil {
			st, err := tgt.poll(ctx)
			if err != nil {
				return nil, err
			}
			ph.depth = append(ph.depth, st.QueueDepth)
		}
	}
	ferr := tgt.flush(ctx)
	ph.wall = time.Since(start)
	cpu1, cerr := tgt.cpu()
	if steal1, err := readSteal(); err == nil {
		ph.steal = steal1.frac(steal0)
	}
	close(stop)
	ro := <-readerDone
	if ferr != nil {
		return nil, ferr
	}
	if cerr != nil {
		return nil, cerr
	}
	ph.cpu = cpu1 - cpu0
	if rd != nil {
		fresh, missed := freshness(sends, ro.polls)
		for _, f := range fresh {
			ph.fresh = append(ph.fresh, ms(f))
		}
		ph.missed = missed
		ph.depth = ro.depth
	}
	ph.predict = ro.predict
	ph.readLag = ro.lag
	ph.attempted += int64(ro.reads)
	ph.failed += int64(ro.errors)
	return ph, nil
}

type readerOut struct {
	polls   []poll
	predict []float64
	lag     []float64
	depth   []int
	reads   int
	errors  int
}

// runReader issues the reader's schedule until stop is closed and a poll
// has seen lastTime (or a grace period after stop runs out).
func runReader(ctx context.Context, tgt target, rd predictor, start time.Time, lastTime int64, stop <-chan struct{}) *readerOut {
	out := &readerOut{}
	var stopped time.Time
	const grace = 10 * time.Second
	seen := int64(-1 << 62)
	for slot := 0; ; slot++ {
		select {
		case <-ctx.Done():
			return out
		case <-stop:
			if stopped.IsZero() {
				stopped = time.Now()
			}
		default:
		}
		if !stopped.IsZero() && (seen >= lastTime || time.Since(stopped) > grace) {
			return out
		}
		due := time.Duration(slot) * pollEvery
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		} else if -d > pollEvery {
			// Fell a whole slot behind: skip the missed slots rather than
			// bursting, but count the lateness.
			out.lag = append(out.lag, ms(-d))
			slot = int(time.Since(start) / pollEvery)
			continue
		}
		out.lag = append(out.lag, ms(time.Since(start)-due))
		out.reads++
		if slot%predictEvery == 0 && stopped.IsZero() {
			if err := rd.predict(ctx); err != nil {
				out.errors++
				continue
			}
			out.predict = append(out.predict, ms(time.Since(start)-due))
			continue
		}
		st, err := tgt.poll(ctx)
		if err != nil {
			out.errors++
			continue
		}
		at := time.Since(start)
		seen = st.Now
		out.polls = append(out.polls, poll{At: at, Now: st.Now})
		out.depth = append(out.depth, st.QueueDepth)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTimes is the aggregate line of /proc/stat: total and stolen ticks.
type cpuTimes struct{ total, steal uint64 }

func readSteal() (cpuTimes, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var ct cpuTimes
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cpuTimes{}, err
		}
		// guest and guest_nice (fields 9, 10) are already in user time.
		if i < 8 {
			ct.total += n
		}
		if i == 7 {
			ct.steal = n
		}
	}
	return ct, nil
}

func (b cpuTimes) frac(a cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
