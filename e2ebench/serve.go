package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	sns "slicenstitch"
)

const streamName = "bench"

// fillTicksPerPost batches the closed-loop window fill of the served
// workload: the fill precedes Start, so its batching changes neither the
// model nor any measured phase.
const fillTicksPerPost = 60

// server is one snsserve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	pid  string
	log  *os.File
	done chan error
	once sync.Once
	err  error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs snsserve with a WAL under dir (fsync interval) and no
// built-in feeders, GOMAXPROCS = nproc, and waits until /healthz answers.
func startServer(ctx context.Context, bin, dir string, probe *http.Client) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "snsserve.log"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-streams", "", "-addr", addr,
		"-data-dir", filepath.Join(dir, "data"), "-fsync", "interval")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("exec snsserve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, pid: strconv.Itoa(cmd.Process.Pid), log: logf, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			logf.Close()
			return nil, fmt.Errorf("snsserve exited during start-up: %v (log in %s)", err, logf.Name())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("snsserve did not answer /healthz within 60s")
		}
	}
}

// stop interrupts the server, waits for it to exit (killing it after
// 30s), and closes its log. Repeated calls return the first call's result.
func (s *server) stop() error {
	s.once.Do(func() {
		defer s.log.Close()
		_ = s.cmd.Process.Signal(os.Interrupt)
		select {
		case err := <-s.done:
			var ee *exec.ExitError
			if err != nil && !errors.As(err, &ee) {
				s.err = err
			}
		case <-time.After(30 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
			s.err = errors.New("snsserve ignored SIGINT for 30s and was killed")
		}
	})
	return s.err
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}, Timeout: 60 * time.Second}
}

// httpTarget drives snsserve: ingest on one connection, reads (polls,
// predicts, scrapes) on a second.
type httpTarget struct {
	srv         *server
	ingestC     *http.Client
	readC       *http.Client
	bodies      [][]byte // per online tick; nil for an empty tick
	predictBody []byte
}

func (t *httpTarget) url(path string) string { return t.srv.base + "/v1/streams/" + streamName + path }

// do issues one request and decodes a JSON answer into out (when non-nil),
// failing on any status other than want.
func do(ctx context.Context, c *http.Client, method, url string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return nil
}

func (t *httpTarget) push(ctx context.Context, k int, _ []sns.Event) error {
	return do(ctx, t.ingestC, "POST", t.url("/events"), t.bodies[k], http.StatusAccepted, nil)
}

func (t *httpTarget) flush(ctx context.Context) error {
	return do(ctx, t.ingestC, "POST", t.url("/flush"), nil, http.StatusOK, nil)
}

func (t *httpTarget) poll(ctx context.Context) (status, error) {
	var s status
	err := do(ctx, t.readC, "GET", t.url(""), nil, http.StatusOK, &s)
	return s, err
}

func (t *httpTarget) predict(ctx context.Context) error {
	var out struct {
		Results []struct {
			Predicted *float64 `json:"predicted"`
			Error     any      `json:"error"`
		} `json:"results"`
	}
	if err := do(ctx, t.readC, "POST", t.url("/predict"), t.predictBody, http.StatusOK, &out); err != nil {
		return err
	}
	if len(out.Results) != predictQueries {
		return fmt.Errorf("predict: %d results for %d queries", len(out.Results), predictQueries)
	}
	for _, r := range out.Results {
		if r.Predicted == nil || r.Error != nil {
			return fmt.Errorf("predict: query failed: %v", r.Error)
		}
	}
	return nil
}

func (t *httpTarget) status(ctx context.Context) (status, error) {
	var s status
	err := do(ctx, t.ingestC, "GET", t.url(""), nil, http.StatusOK, &s)
	return s, err
}

func (t *httpTarget) cpu() (time.Duration, error) { return procCPU(t.srv.pid) }

func (t *httpTarget) memMB() (float64, error) { return peakRSSMB(t.srv.pid) }

func (t *httpTarget) scrape(ctx context.Context) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", t.srv.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.readC.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(data))
}

// procCPU reads utime+stime of /proc/<pid>/stat (USER_HZ = 100 on Linux).
func procCPU(pid string) (time.Duration, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%s/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// openServe execs snsserve, creates the stream, fills the first window
// closed loop and starts it. The returned duration runs from exec to the
// start call's answer.
func openServe(ctx context.Context, w *workload, seed int64, bin, dir string, fill [][]byte) (*httpTarget, time.Duration, error) {
	ingestC := newClient()
	start := time.Now()
	srv, err := startServer(ctx, bin, dir, ingestC)
	if err != nil {
		return nil, 0, err
	}
	t := &httpTarget{srv: srv, ingestC: ingestC, readC: newClient()}
	fail := func(err error) (*httpTarget, time.Duration, error) {
		srv.stop()
		return nil, 0, err
	}
	create, err := json.Marshal(map[string]any{"name": streamName, "config": w.streamConfig(seed)})
	if err != nil {
		return fail(err)
	}
	if err := do(ctx, ingestC, "POST", srv.base+"/v1/streams", create, http.StatusCreated, nil); err != nil {
		return fail(err)
	}
	for _, body := range fill {
		if err := do(ctx, ingestC, "POST", t.url("/events"), body, http.StatusAccepted, nil); err != nil {
			return fail(fmt.Errorf("fill: %w", err))
		}
	}
	if err := do(ctx, ingestC, "POST", t.url("/start"), nil, http.StatusOK, nil); err != nil {
		return fail(err)
	}
	return t, time.Since(start), nil
}

// runServe runs the workload's rounds against snsserve: each round execs
// a fresh server, sets it up and replays the online trace open loop at
// w.ticksPerSecond ticks per second.
func runServe(ctx context.Context, w *workload, tr *trace, seed int64, rounds int, bin, workDir string, traced bool) ([]*round, error) {
	var fill [][]byte
	for lo := 0; lo < tr.fill; lo += fillTicksPerPost {
		var evs []sns.Event
		for _, t := range tr.ticks[lo:min(lo+fillTicksPerPost, tr.fill)] {
			evs = append(evs, t...)
		}
		if len(evs) == 0 {
			continue
		}
		body, err := json.Marshal(evs)
		if err != nil {
			return nil, err
		}
		fill = append(fill, body)
	}
	online := tr.online()
	bodies := make([][]byte, len(online))
	bodyBytes := 0
	for k, evs := range online {
		if len(evs) == 0 {
			continue
		}
		b, err := json.Marshal(evs)
		if err != nil {
			return nil, err
		}
		bodies[k] = b
		bodyBytes += len(b)
	}
	qs := make([]map[string]any, 0, predictQueries)
	for _, c := range queryCoords(w.preset.Dims, seed) {
		qs = append(qs, map[string]any{"coord": c, "t": windowW - 1})
	}
	predictBody, err := json.Marshal(map[string]any{"queries": qs})
	if err != nil {
		return nil, err
	}

	var out []*round
	for i := 0; i < rounds; i++ {
		r, err := serveRound(ctx, w, seed, bin, filepath.Join(workDir, fmt.Sprintf("srv-%d", i)), fill, bodies, bodyBytes, predictBody, online, traced)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func serveRound(ctx context.Context, w *workload, seed int64, bin, dir string, fill, bodies [][]byte, bodyBytes int, predictBody []byte, online [][]sns.Event, traced bool) (*round, error) {
	steal0, _ := readSteal()
	tgt, setup, err := openServe(ctx, w, seed, bin, dir, fill)
	if err != nil {
		return nil, err
	}
	defer tgt.srv.stop()
	tgt.bodies, tgt.predictBody = bodies, predictBody
	r := &round{setup: setup}
	if steal1, err := readSteal(); err == nil {
		r.setupSteal = steal1.frac(steal0)
	}
	m0, err := tgt.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	if r.phase, err = measure(ctx, tgt, online, float64(w.ticksPerSecond), tgt); err != nil {
		return nil, err
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	m1, err := tgt.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	if r.final, err = tgt.status(ctx); err != nil {
		return nil, err
	}
	if r.memMB, err = tgt.memMB(); err != nil {
		return nil, err
	}
	r.layers = serveLayers(m0, m1, r.phase, bodyBytes)
	r.layers["gc.cycles"] = float64(gc1.NumGC - gc0.NumGC)
	r.layers["gc.pause_ms_total"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
	if traced {
		start := time.Now()
		if err := do(ctx, tgt.readC, "GET", tgt.url("/checkpoint"), nil, http.StatusOK, nil); err != nil {
			return nil, fmt.Errorf("checkpoint capture: %w", err)
		}
		r.layers["ckpt.capture_ms"] = ms(time.Since(start))
	}
	if err := tgt.srv.stop(); err != nil {
		return nil, err
	}
	return r, nil
}

// serveLayers turns /metrics deltas over the measured phase into the
// engine, wal, ckpt and http layer metrics.
func serveLayers(a, b scrape, ph *phase, bodyBytes int) map[string]float64 {
	out := map[string]float64{}
	st := []string{"stream", streamName}
	d := func(name string, match ...string) float64 { return b.value(name, match...) - a.value(name, match...) }
	out["engine.writer_busy_frac"] = d("sns_writer_busy_seconds_total", st...) / ph.wall.Seconds()
	apply := histogramDelta(a, b, "sns_batch_apply_seconds", st...)
	out["engine.batch_apply_us_p50"] = apply.quantile(0.5) * 1e6
	out["engine.batch_apply_us_p99"] = apply.quantile(0.99) * 1e6
	events := d("sns_ingest_events_total", st...)
	out["wal.append_us_mean"] = histogramDelta(a, b, "sns_wal_append_seconds", st...).mean() * 1e6
	out["wal.fsyncs"] = d("sns_wal_fsyncs_total", st...)
	out["wal.fsync_ms_p99"] = histogramDelta(a, b, "sns_wal_fsync_seconds", st...).quantile(0.99) * 1e3
	if events > 0 {
		out["wal.bytes_per_event"] = d("sns_wal_append_bytes_total", st...) / events
		out["http.bytes_per_event"] = float64(bodyBytes) / events
	}
	out["ckpt.count"] = d("sns_checkpoints_total", st...)
	out["ckpt.write_ms_mean"] = histogramDelta(a, b, "sns_checkpoint_duration_seconds", st...).mean() * 1e3
	out["ckpt.bytes"] = b.value("sns_checkpoint_last_bytes", st...)
	ev := histogramDelta(a, b, "sns_http_request_duration_seconds", "route", "/v1/streams/{name}/events", "method", "POST")
	pr := histogramDelta(a, b, "sns_http_request_duration_seconds", "route", "/v1/streams/{name}/predict", "method", "POST")
	out["http.events_ms_p50"] = ev.quantile(0.5) * 1e3
	out["http.events_ms_p99"] = ev.quantile(0.99) * 1e3
	out["http.predict_ms_p50"] = pr.quantile(0.5) * 1e3
	out["http.predict_ms_p99"] = pr.quantile(0.99) * 1e3
	out["http.client_gap_ms_p50"] = percentileAt(ph.ingest, 0.5) - out["http.events_ms_p50"]
	// The events handler's own time bounds the time PushBatch blocked
	// inside it from above.
	out["engine.push_block_ms_total"] = ev.Sum * 1e3
	return out
}
