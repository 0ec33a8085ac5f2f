package slicenstitch

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestStreamHandleLifecycle drives a stream end to end through its handle
// only — fill, start, push, flush, snapshot, predict, observed,
// checkpoint — proving the handle surface is complete.
func TestStreamHandleLifecycle(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	st, err := e.AddStream("s", validStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.Name() != "s" {
		t.Fatalf("Name = %q", st.Name())
	}
	if cfg := st.Config(); cfg.MailboxCapacity != 256 || cfg.PublishEvery != 256 {
		t.Fatalf("Config defaults not applied: %+v", cfg)
	}

	rng := rand.New(rand.NewSource(9))
	events := make([]Event, 0, 64)
	tm := int64(0)
	for i := 0; i < 50; i++ {
		tm += int64(rng.Intn(2))
		events = append(events, Event{Coord: []int{rng.Intn(5), rng.Intn(4)}, Value: 1, Time: tm})
	}
	if err := st.PushBatch(bg, events); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(bg); err != nil {
		t.Fatal(err)
	}
	if err := st.Push(bg, []int{2, 3}, 5, tm); err != nil {
		t.Fatal(err)
	}
	if err := st.AdvanceTo(bg, tm+5); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(bg); err != nil {
		t.Fatal(err)
	}

	snap := st.Snapshot()
	if !snap.Started || snap.Ingested != 51 || snap.Factors == nil || snap.Now != tm+5 {
		t.Fatalf("handle snapshot = %+v", snap)
	}
	if _, err := st.Predict([]int{1, 1}, 0); err != nil {
		t.Fatal(err)
	}
	if v, err := st.Observed(bg, []int{2, 3}, 2); err != nil || v < 5 {
		t.Fatalf("Observed = (%v, %v), want >= 5", v, err)
	}

	// A second handle from the registry pins the same shard.
	again, err := e.Stream("s")
	if err != nil {
		t.Fatal(err)
	}
	if byName := again.Snapshot(); byName.Events != snap.Events || byName.Now != snap.Now {
		t.Fatalf("handles to one stream disagree: %+v vs %+v", snap, byName)
	}

	// Single-stream checkpoint through the handle round-trips.
	var buf bytes.Buffer
	if err := st.Checkpoint(bg, &buf); err != nil {
		t.Fatal(err)
	}
	tr, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Started() || tr.NNZ() != snap.NNZ {
		t.Fatalf("restored tracker: started=%v nnz=%d want nnz=%d", tr.Started(), tr.NNZ(), snap.NNZ)
	}
}

// Engine.Stream must return a handle to the same shard AddStream created:
// pushes through either are visible to both.
func TestStreamLookupSharesShard(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	created, err := e.AddStream("s", validStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	looked, err := e.Stream("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := created.Push(bg, []int{0, 0}, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := looked.Flush(bg); err != nil {
		t.Fatal(err)
	}
	if snap := looked.Snapshot(); snap.Ingested != 1 {
		t.Fatalf("lookup handle sees %d ingested, want 1", snap.Ingested)
	}
}

// A batch handed to a stopped stream is rejected whole — no partial
// ingestion — and the returned error is matchable.
func TestStreamStoppedRejectsWholeBatch(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	st, err := e.AddStream("s", validStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveStream("s"); err != nil {
		t.Fatal(err)
	}
	err = st.PushBatch(bg, []Event{
		{Coord: []int{0, 0}, Value: 1, Time: 0},
		{Coord: []int{1, 1}, Value: 1, Time: 0},
	})
	if !errors.Is(err, ErrStreamStopped) {
		t.Fatalf("PushBatch on stopped stream = %v", err)
	}
	if snap := st.Snapshot(); snap.Ingested != 0 {
		t.Fatalf("stopped stream ingested %d events", snap.Ingested)
	}
	// An empty batch is a no-op even on a stopped stream.
	if err := st.PushBatch(bg, nil); err != nil {
		t.Fatalf("empty batch = %v", err)
	}
}
