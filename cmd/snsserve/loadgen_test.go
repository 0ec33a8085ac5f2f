package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"slicenstitch"
	"slicenstitch/internal/dataset"
	"slicenstitch/internal/load"
)

// synthTrace is a deterministic in-memory trace: perTick events on every
// tick in [0, ticks), coordinates cycling through a dims-5×4 grid.
type synthTrace struct {
	ticks   int64
	perTick int
	i       int64
}

func (s *synthTrace) Next() (dataset.Event, error) {
	if s.i >= s.ticks*int64(s.perTick) {
		return dataset.Event{}, io.EOF
	}
	tick := s.i / int64(s.perTick)
	j := int(s.i % int64(s.perTick))
	s.i++
	return dataset.Event{Coord: []int{j % 5, (j + int(tick)) % 4}, Value: 1, Time: tick}, nil
}

func (s *synthTrace) Close() error { return nil }

// TestLoadReplayEndToEnd runs the full snsload pipeline against a live
// mux: stream creation from a trace shape, closed-loop warm-up with a
// derived span, a 10× open-loop replay with 4 concurrent predict
// readers, and a complete SLO report.
func TestLoadReplayEndToEnd(t *testing.T) {
	e := slicenstitch.NewEngine()
	defer e.Close()
	srv := httptest.NewServer(newMux(e, 1024))
	defer srv.Close()
	ctx := context.Background()

	err := load.CreateStream(ctx, srv.Client(), srv.URL, "replay", load.CreateConfig{
		Dims: []int{5, 4}, W: 3, Period: 2, Rank: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	const ticks, perTick = 200, 3
	rep, err := load.Run(ctx, &synthTrace{ticks: ticks, perTick: perTick}, load.Options{
		BaseURL:     srv.URL,
		Stream:      "replay",
		Speed:       10,
		TickUnit:    time.Millisecond,
		Readers:     4,
		ReadEvery:   time.Millisecond,
		WarmupTicks: -1, // derive W·Period = 6 from the status document
		Client:      srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Warm-up covered trace ticks [0, 6): 6 ticks × 3 events.
	if rep.WarmupEvents != 18 {
		t.Fatalf("warm-up events = %d, want 18", rep.WarmupEvents)
	}
	wantBatches := int64(ticks - 6)
	if rep.Batches != wantBatches || rep.Events != wantBatches*perTick {
		t.Fatalf("replayed %d batches / %d events, want %d / %d",
			rep.Batches, rep.Events, wantBatches, wantBatches*perTick)
	}
	if rep.AcceptedBatches != wantBatches || rep.ErrorBatches != 0 || rep.RateLimitedBatches != 0 {
		t.Fatalf("outcomes: accepted %d limited %d errors %d",
			rep.AcceptedBatches, rep.RateLimitedBatches, rep.ErrorBatches)
	}
	// Every accepted batch contributed one ingest latency sample, and
	// the quantile ladder is ordered.
	ing := rep.Ingest
	if ing.Count != uint64(wantBatches) || ing.P50Millis <= 0 ||
		ing.P99Millis < ing.P50Millis || ing.P999Millis < ing.P99Millis {
		t.Fatalf("ingest summary: %+v", ing)
	}
	// The 4 readers ran throughout the replay without a single failed
	// predict (the stream was started before they spun up).
	if rep.Reads == 0 || rep.ReadErrors != 0 {
		t.Fatalf("reads %d, read errors %d", rep.Reads, rep.ReadErrors)
	}
	if rep.Predict.Count != uint64(rep.Reads) || rep.Predict.P999Millis < rep.Predict.P50Millis {
		t.Fatalf("predict summary: %+v (reads %d)", rep.Predict, rep.Reads)
	}
	// Server-side cross-check: everything the trace held was applied.
	if rep.FinalIngested != ticks*perTick {
		t.Fatalf("final ingested = %d, want %d", rep.FinalIngested, ticks*perTick)
	}
	if rep.OfferedEventsPerSec <= 0 || rep.WallSeconds <= 0 {
		t.Fatalf("throughput not derived: %+v", rep)
	}

	// The JSON document carries the full quantile ladder for both
	// populations — what the CI SLO gate consumes.
	var sb strings.Builder
	if err := rep.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Speed   float64 `json:"speed"`
		Readers int     `json:"readers"`
		Ingest  struct {
			P999 float64 `json:"p999Millis"`
		} `json:"ingest"`
		Predict struct {
			P999 float64 `json:"p999Millis"`
		} `json:"predict"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Speed != 10 || doc.Readers != 4 || doc.Ingest.P999 <= 0 || doc.Predict.P999 <= 0 {
		t.Fatalf("SLO document: %+v", doc)
	}
}

// TestLoadOverloadRateLimited replays an offered load far beyond a
// stream's admission limit and asserts the open-loop generator observes
// the shed: 429s with Retry-After, counted but never retried, agreeing
// with the server's own admission counters.
func TestLoadOverloadRateLimited(t *testing.T) {
	e := slicenstitch.NewEngine()
	defer e.Close()
	srv := httptest.NewServer(newMux(e, 1024))
	defer srv.Close()
	ctx := context.Background()

	// Burst 20 comfortably admits the 10-event warm-up (W·Period = 2
	// ticks × 5 events); the replay's ~50k ev/s offered load then
	// overwhelms the 50 ev/s refill immediately.
	err := load.CreateStream(ctx, srv.Client(), srv.URL, "limited", load.CreateConfig{
		Dims: []int{5, 4}, W: 2, Period: 1, Rank: 2,
		RateLimit: 50, RateBurst: 20,
	})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := load.Run(ctx, &synthTrace{ticks: 100, perTick: 5}, load.Options{
		BaseURL:     srv.URL,
		Stream:      "limited",
		Speed:       100,
		TickUnit:    10 * time.Millisecond,
		Readers:     2,
		ReadEvery:   time.Millisecond,
		WarmupTicks: -1,
		Client:      srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}

	if rep.RateLimitedBatches == 0 || rep.RateLimitedEvents == 0 {
		t.Fatalf("no admission rejections observed: %+v", rep)
	}
	if !rep.SawRetryAfter {
		t.Fatal("429 responses carried no Retry-After header")
	}
	if rep.AcceptedBatches == 0 {
		t.Fatal("burst admitted nothing")
	}
	if rep.ErrorBatches != 0 {
		t.Fatalf("unexpected hard errors: %d", rep.ErrorBatches)
	}
	if got := rep.AcceptedBatches + rep.RateLimitedBatches; got != rep.Batches {
		t.Fatalf("outcome accounting: %d accepted + %d limited != %d batches",
			rep.AcceptedBatches, rep.RateLimitedBatches, rep.Batches)
	}
	// The generator's counts and the server's admission counter describe
	// the same rejections (this generator is the stream's only producer;
	// warm-up retries contribute to both sides too).
	if rep.ServerLimitedEvents != uint64(rep.RateLimitedEvents+rep.WarmupLimitedEvents) {
		t.Fatalf("server counted %d limited events, generator %d replay + %d warm-up",
			rep.ServerLimitedEvents, rep.RateLimitedEvents, rep.WarmupLimitedEvents)
	}
	st, err := e.Stream("limited")
	if err != nil {
		t.Fatal(err)
	}
	if snap := st.Snapshot(); snap.Admission == nil || snap.Admission.LimitedBatches != uint64(rep.RateLimitedBatches) {
		t.Fatalf("engine admission view: %+v", snap.Admission)
	}
}
