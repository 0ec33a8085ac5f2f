package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	sns "slicenstitch"
	"slicenstitch/internal/metrics"
)

// inprocTarget drives an Engine in this process through its Stream
// handle.
type inprocTarget struct {
	eng *sns.Engine
	st  *sns.Stream
}

func (t *inprocTarget) push(ctx context.Context, _ int, evs []sns.Event) error {
	return t.st.PushBatch(ctx, evs)
}

func (t *inprocTarget) flush(ctx context.Context) error { return t.st.Flush(ctx) }

func (t *inprocTarget) poll(ctx context.Context) (status, error) { return t.status(ctx) }

func (t *inprocTarget) status(context.Context) (status, error) {
	s := t.st.Snapshot()
	return status{Now: s.Now, Ingested: s.Ingested, IngestErrors: s.IngestErrors, Fitness: s.Fitness, QueueDepth: s.QueueDepth}, nil
}

func (t *inprocTarget) cpu() (time.Duration, error) { return selfCPU() }

func (t *inprocTarget) memMB() (float64, error) { return peakRSSMB("self") }

// selfCPU is this process's user+system CPU time.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// openInproc builds the workload's engine and stream, fills the first
// window and warm-starts it. The returned duration runs from engine open
// to Start's return.
func openInproc(ctx context.Context, w *workload, tr *trace, seed int64, dir string) (*inprocTarget, time.Duration, error) {
	start := time.Now()
	var eng *sns.Engine
	if w.durable {
		var err error
		eng, err = sns.Open(sns.Options{Durability: &sns.DurabilityOptions{
			Dir: dir, Fsync: sns.FsyncInterval, CheckpointEvery: w.checkpointEvery,
		}})
		if err != nil {
			return nil, 0, fmt.Errorf("open engine: %w", err)
		}
	} else {
		eng = sns.NewEngine()
	}
	st, err := eng.AddStream("bench", w.streamConfig(seed))
	if err != nil {
		eng.Close()
		return nil, 0, fmt.Errorf("add stream: %w", err)
	}
	for _, evs := range tr.ticks[:tr.fill] {
		if len(evs) == 0 {
			continue
		}
		if err := st.PushBatch(ctx, evs); err != nil {
			eng.Close()
			return nil, 0, fmt.Errorf("fill: %w", err)
		}
	}
	if err := st.Start(ctx); err != nil {
		eng.Close()
		return nil, 0, fmt.Errorf("start: %w", err)
	}
	return &inprocTarget{eng: eng, st: st}, time.Since(start), nil
}

// runInproc runs the workload's rounds against in-process engines: each
// round opens a fresh engine, sets it up and runs the closed-loop
// measured phase on it, with no reader beside the producer.
func runInproc(ctx context.Context, w *workload, tr *trace, seed int64, rounds int, workDir string, traced bool) ([]*round, error) {
	var out []*round
	for i := 0; i < rounds; i++ {
		runtime.GC()
		r, err := inprocRound(ctx, w, tr, seed, filepath.Join(workDir, fmt.Sprintf("data-%d", i)), traced)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func inprocRound(ctx context.Context, w *workload, tr *trace, seed int64, dir string, traced bool) (*round, error) {
	steal0, _ := readSteal()
	tgt, setup, err := openInproc(ctx, w, tr, seed, dir)
	if err != nil {
		return nil, err
	}
	defer tgt.eng.Close()
	r := &round{setup: setup}
	if steal1, err := readSteal(); err == nil {
		r.setupSteal = steal1.frac(steal0)
	}
	m0 := tgt.eng.Metrics().Streams[0]
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	if r.phase, err = measure(ctx, tgt, tr.online(), 0, nil); err != nil {
		return nil, err
	}
	m1 := tgt.eng.Metrics().Streams[0]
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	if r.final, err = tgt.status(ctx); err != nil {
		return nil, err
	}
	if r.memMB, err = tgt.memMB(); err != nil {
		return nil, err
	}
	r.layers = inprocLayers(m0, m1, r.phase)
	r.layers["gc.cycles"] = float64(gc1.NumGC - gc0.NumGC)
	r.layers["gc.pause_ms_total"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
	r.layers["engine.push_block_ms_total"] = ms(r.phase.pushBlock)
	if traced && w.durable {
		start := time.Now()
		if err := tgt.st.Checkpoint(ctx, io.Discard); err != nil {
			return nil, fmt.Errorf("checkpoint capture: %w", err)
		}
		r.layers["ckpt.capture_ms"] = ms(time.Since(start))
	}
	if err := tgt.eng.Close(); err != nil {
		return nil, fmt.Errorf("close engine: %w", err)
	}
	return r, nil
}

// inprocLayers turns Engine.Metrics deltas over the measured phase into
// the engine, wal and ckpt layer metrics.
func inprocLayers(m0, m1 sns.StreamMetrics, ph *phase) map[string]float64 {
	out := map[string]float64{}
	wall := ph.wall.Seconds()
	out["engine.writer_busy_frac"] = (m1.Stats.BusyMillis - m0.Stats.BusyMillis) / 1e3 / wall
	apply := snapDelta(m0.Apply, m1.Apply)
	out["engine.batch_apply_us_p50"] = apply.quantile(0.5) * 1e6
	out["engine.batch_apply_us_p99"] = apply.quantile(0.99) * 1e6
	events := float64(m1.Stats.Ingested - m0.Stats.Ingested)
	if m1.WAL != nil {
		app := snapDelta(m0.WAL.AppendLatency, m1.WAL.AppendLatency)
		out["wal.append_us_mean"] = app.mean() * 1e6
		out["wal.fsyncs"] = float64(m1.WAL.Fsyncs - m0.WAL.Fsyncs)
		out["wal.fsync_ms_p99"] = snapDelta(m0.WAL.FsyncLatency, m1.WAL.FsyncLatency).quantile(0.99) * 1e3
		if events > 0 {
			out["wal.bytes_per_event"] = float64(m1.WAL.AppendBytes-m0.WAL.AppendBytes) / events
		}
	}
	if m1.Checkpoint != nil {
		out["ckpt.count"] = float64(m1.Checkpoint.Checkpoints - m0.Checkpoint.Checkpoints)
		out["ckpt.write_ms_mean"] = snapDelta(m0.Checkpoint.Duration, m1.Checkpoint.Duration).mean() * 1e3
		out["ckpt.bytes"] = float64(m1.Checkpoint.LastBytes)
	}
	return out
}

// snapDelta is histogram b minus histogram a in histDelta form.
func snapDelta(a, b metrics.HistogramSnapshot) histDelta {
	var h histDelta
	for i, bk := range b.Buckets() {
		h.Upper = append(h.Upper, bk.UpperSeconds)
		h.Counts = append(h.Counts, float64(b.Counts[i]-a.Counts[i]))
	}
	h.Sum = b.SumSeconds - a.SumSeconds
	h.Count = float64(b.Count - a.Count)
	return h
}

// peakRSSMB reads VmHWM of /proc/<pid>/status in MiB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
