// Command e2ebench is the repository's end-to-end benchmark. It replays a
// paper-scale datagen trace against the engine — in process, or inside
// snsserve over HTTP — measures the end-to-end metrics a user sees, and
// checks the outputs. With -trace 1 it instead reports per-layer metrics
// from a traced replay of the same trace through the layer stack.
//
// Run it through run.sh from the repository root, which builds it and
// snsserve first; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// round is one engine set up from scratch and measured: the set-up time,
// the measured phase, the final status and the layer metrics.
type round struct {
	setup time.Duration
	// setupSteal is the share of host CPU time the hypervisor stole
	// during set-up.
	setupSteal float64
	phase      *phase
	final      status
	memMB      float64
	layers     map[string]float64
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// endToEnd are the metrics of an untraced run, with their units.
var endToEnd = []struct{ name, unit string }{
	{"ingest_eps", "events/s"},
	{"cpu_us_per_event", "us"},
	{"fitness", "1"},
	{"setup_s", "s"},
	{"mem_mb", "MiB"},
}

// perLayer are the metrics of a traced run, with their units. A layer a
// workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"window.fill_s", "s"},
	{"als.start_s", "s"},
	{"window.self_us_per_event", "us"},
	{"window.changes_per_event", "1"},
	{"window.self_frac", "1"},
	{"core.apply_us_mean.arrival", "us"},
	{"core.apply_us_mean.shift", "us"},
	{"core.apply_us_mean.expiry", "us"},
	{"core.apply_us_p99", "us"},
	{"core.self_frac", "1"},
	{"kernel.mttkrp_row_ns", "ns"},
	{"kernel.symsolve_ns", "ns"},
	{"publish.count", "count"},
	{"publish.fitness_ms_mean", "ms"},
	{"publish.factors_ms_mean", "ms"},
	{"publish.self_frac", "1"},
	{"trace.other_frac", "1"},
	{"engine.self_frac", "1"},
	{"engine.writer_busy_frac", "1"},
	{"engine.batch_apply_us_p50", "us"},
	{"engine.batch_apply_us_p99", "us"},
	{"engine.queue_depth_mean", "batches"},
	{"engine.queue_depth_max", "batches"},
	{"engine.push_block_ms_total", "ms"},
	{"wal.append_us_mean", "us"},
	{"wal.fsyncs", "count"},
	{"wal.fsync_ms_p99", "ms"},
	{"wal.bytes_per_event", "B"},
	{"ckpt.count", "count"},
	{"ckpt.capture_ms", "ms"},
	{"ckpt.write_ms_mean", "ms"},
	{"ckpt.bytes", "B"},
	{"http.events_ms_p50", "ms"},
	{"http.events_ms_p99", "ms"},
	{"http.predict_ms_p50", "ms"},
	{"http.predict_ms_p99", "ms"},
	{"http.client_gap_ms_p50", "ms"},
	{"http.bytes_per_event", "B"},
	{"fresh_ms_p50", "ms"},
	{"fresh_ms_tail", "ms"},
	{"ingest_ms_p50", "ms"},
	{"ingest_ms_tail", "ms"},
	{"predict_ms_p50", "ms"},
	{"predict_ms_tail", "ms"},
	{"failed_frac", "1"},
	{"load.sched_lag_ms_p99", "ms"},
	{"load.sched_lag_ms_max", "ms"},
	{"host.steal_frac", "1"},
	{"gc.cycles", "count"},
	{"gc.pause_ms_total", "ms"},
	{"trace.overhead_frac", "1"},
}

// maxGeneratorLag is how late an open-loop send may start before the run
// is invalid: beyond it the generator, not the system, set the schedule.
const maxGeneratorLag = 500 * time.Millisecond

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: taxi-paper, divvy-serve or austin-durable")
	seed := flag.Int64("seed", 1, "seed for the run's inputs")
	seconds := flag.Int("seconds", 12, "measured seconds, split evenly over the rounds")
	traceMode := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	snsserve := flag.String("snsserve", "", "snsserve binary (divvy-serve)")
	work := flag.String("work", ".bench_build", "directory for per-run data")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad flags (%v)\n", err)
		flag.Usage()
		return 2
	}
	if w.serve && *snsserve == "" {
		fmt.Fprintln(os.Stderr, "e2ebench: divvy-serve needs -snsserve")
		return 2
	}
	workDir := filepath.Join(*work, fmt.Sprintf("run-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	//lint:ignore ctxfirst the benchmark binary is a context root
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := bench(ctx, w, *seed, *seconds, *traceMode == 1, *snsserve, workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// gate collects the correctness checks of a run.
type gate struct{ failures []string }

func (g *gate) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		fmt.Println("check ok:  ", msg)
		return
	}
	fmt.Println("check FAIL:", msg)
	g.failures = append(g.failures, msg)
}

func bench(ctx context.Context, w *workload, seed int64, seconds int, traced bool, snsserve, workDir string) (*resultOut, error) {
	h := hostInfo(workDir)
	hj, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hj)
	fmt.Printf("workload %s seed %d seconds %d trace %t\n", w.name, seed, seconds, traced)

	tr := makeTrace(w, seed, seconds)
	g := &gate{}
	g.check(tr.fpEvents == w.fpEvents && tr.fpHash == w.fpHash,
		"trace fingerprint events=%d hash=%#x (want events=%d hash=%#x)", tr.fpEvents, tr.fpHash, w.fpEvents, w.fpHash)

	n := w.rounds
	if traced {
		n = 1
	}
	var rs []*round
	var err error
	if w.serve {
		rs, err = runServe(ctx, w, tr, seed, n, snsserve, workDir, traced)
	} else {
		rs, err = runInproc(ctx, w, tr, seed, n, workDir, traced)
	}
	if err != nil {
		return nil, err
	}
	sent := countEvents(tr.ticks)
	var setups, eps, cpu, mem []float64
	res := &resultOut{Metrics: map[string]metricOut{}}
	for i, r := range rs {
		ph := r.phase
		g.check(r.final.Ingested == uint64(sent) && ph.failed == 0,
			"round %d: ingested %d of %d sent events, %d failed operations", i, r.final.Ingested, sent, ph.failed)
		g.check(r.final.IngestErrors == 0, "round %d: ingest errors %d", i, r.final.IngestErrors)
		g.check(math.Float64bits(r.final.Fitness) == math.Float64bits(rs[0].final.Fitness),
			"round %d: fitness %v bit-identical to round 0's", i, r.final.Fitness)
		if w.serve {
			g.check(ph.missed == 0, "round %d: every ingested tick seen by a poll (%d missed)", i, ph.missed)
		}
		if len(ph.genLag) > 0 {
			lag := summarize(ph.genLag)
			g.check(lag.Max <= ms(maxGeneratorLag), "round %d: generator lateness max %.3f ms <= %.0f ms (run valid)", i, lag.Max, ms(maxGeneratorLag))
		}
		fmt.Printf("round %d: setup %.3f s (steal %.4f), measured %d events in %.3f s (steal %.4f), cpu %.3f s\n",
			i, r.setup.Seconds(), r.setupSteal, ph.events, ph.wall.Seconds(), ph.steal, ph.cpu.Seconds())
		fmt.Printf("round %d: ingest_ms %v\n", i, summarize(ph.ingest))
		if w.serve {
			fmt.Printf("round %d: fresh_ms %v\n", i, summarize(ph.fresh))
			fmt.Printf("round %d: predict_ms %v\n", i, summarize(ph.predict))
			fmt.Printf("round %d: generator_lag_ms %v\n", i, summarize(ph.genLag))
			fmt.Printf("round %d: reader_lag_ms %v\n", i, summarize(ph.readLag))
		}
		setups = append(setups, r.setup.Seconds())
		eps = append(eps, float64(ph.events)/ph.wall.Seconds())
		cpu = append(cpu, float64(ph.cpu.Microseconds())/float64(ph.events))
		mem = append(mem, r.memMB)
		res.Attempted += ph.attempted
		res.Failed += ph.failed + int64(r.final.IngestErrors)
	}
	fitness := rs[0].final.Fitness
	g.check(fitness >= w.fitnessFloor, "fitness %.6f >= floor %.2f", fitness, w.fitnessFloor)
	if !traced {
		// In process, peak RSS only grows from round to round, so the
		// last round's reading is the run's peak.
		memMB := mem[len(mem)-1]
		if w.serve {
			memMB = percentileAt(mem, 0.5)
		}
		vals := map[string]float64{
			"ingest_eps":       percentileAt(eps, 0.5),
			"cpu_us_per_event": percentileAt(cpu, 0.5),
			"fitness":          fitness,
			"setup_s":          percentileAt(setups, 0.5),
			"mem_mb":           memMB,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricOut{Value: vals[m.name], Unit: m.unit}
		}
	} else {
		layers, err := tracedLayers(w, tr, seed, rs[0], g, workDir)
		if err != nil {
			return nil, err
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metricOut{Value: layers[m.name], Unit: m.unit}
		}
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	for _, m := range list {
		fmt.Printf("metric %-28s %.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	res.Correct = len(g.failures) == 0
	return res, nil
}

// tracedLayers runs the traced and untraced replays beside the engine run
// and assembles every per-layer metric.
func tracedLayers(w *workload, tr *trace, seed int64, er *round, g *gate, workDir string) (map[string]float64, error) {
	ph := er.phase
	layers := er.layers
	plain := replay(w, tr, seed, false)
	ro := replay(w, tr, seed, true)
	g.check(math.Float64bits(ro.fitness) == math.Float64bits(er.final.Fitness) &&
		math.Float64bits(plain.fitness) == math.Float64bits(er.final.Fitness),
		"replay fitness %v bit-identical to the engine run's %v", ro.fitness, er.final.Fitness)
	spanFile := filepath.Join(filepath.Dir(workDir), fmt.Sprintf("spans-%s-%d.csv", w.name, seed))
	if err := writeSpans(spanFile, ro.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans %d written to %s\n", len(ro.spans), spanFile)
	for k, v := range traceLayers(ro) {
		layers[k] = v
	}
	layers["kernel.mttkrp_row_ns"], layers["kernel.symsolve_ns"] = kernelTimes(ro)
	layers["trace.overhead_frac"] = (ro.online.Seconds() - plain.online.Seconds()) / plain.online.Seconds()
	// The engine's own cost: CPU the engine-holding process spent beyond
	// what the bare layer stack needs for the same trace.
	layers["engine.self_frac"] = (ph.cpu.Seconds() - plain.onlineCPU.Seconds()) / ph.cpu.Seconds()
	fmt.Printf("replay online wall plain %.3f s traced %.3f s, cpu plain %.3f s traced %.3f s\n",
		plain.online.Seconds(), ro.online.Seconds(), plain.onlineCPU.Seconds(), ro.onlineCPU.Seconds())
	depth := make([]float64, len(ph.depth))
	for i, d := range ph.depth {
		depth[i] = float64(d)
	}
	ds := summarize(depth)
	layers["engine.queue_depth_mean"], layers["engine.queue_depth_max"] = ds.Mean, ds.Max
	for name, xs := range map[string][]float64{"fresh_ms": ph.fresh, "ingest_ms": ph.ingest, "predict_ms": ph.predict} {
		s := summarize(xs)
		layers[name+"_p50"], layers[name+"_tail"] = s.P50, s.Tail
	}
	if ph.attempted > 0 {
		layers["failed_frac"] = float64(ph.failed+int64(er.final.IngestErrors)) / float64(ph.attempted)
	}
	lag := append(append([]float64(nil), ph.genLag...), ph.readLag...)
	layers["load.sched_lag_ms_p99"] = percentileAt(lag, 0.99)
	layers["load.sched_lag_ms_max"] = summarize(lag).Max
	layers["host.steal_frac"] = ph.steal
	return layers, nil
}

// host is the fingerprint printed with every result.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	DataDirFS  string `json:"dataDirFS"`
}

func hostInfo(dir string) host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), DataDirFS: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil {
		h.DataDirFS = fsName(st.Type)
	}
	return h
}

func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x65735546:
		return "fuse"
	}
	return fmt.Sprintf("0x%x", magic)
}
