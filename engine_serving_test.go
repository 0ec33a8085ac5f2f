package slicenstitch

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

func TestEngineObservedValidation(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	st, err := e.AddStream("s", validStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	var coordErr *CoordError
	if _, err := st.Observed(bg, []int{99, 0}, 0); !errors.As(err, &coordErr) {
		t.Fatalf("bad coord err = %v, want *CoordError", err)
	}
	// Idle stream: the read answers after the queued push.
	if err := st.Push(bg, []int{2, 3}, 7, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	v, err := st.Observed(ctx, []int{2, 3}, 2)
	if err != nil {
		t.Fatalf("Observed = (%v, %v)", v, err)
	}
	if v != 7 {
		t.Fatalf("observed %v want 7", v)
	}
}

// The predict-serving guarantee: an Observed read bounded by a context
// deadline must return promptly even when the shard writer is buried
// under queued batches, instead of hanging behind the mailbox until the
// backlog drains.
func TestEngineObservedBoundedUnderBacklog(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	cfg := validStreamConfig()
	cfg.MailboxCapacity = 2
	st, err := e.AddStream("s", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm := fillAndStart(t, st, 11)

	// Jam the writer: sequential started batches that advance time, so
	// every arrival drags its shift/expiry cascade with it.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < 6; b++ {
			batch := make([]Event, 2000)
			for k := range batch {
				if k%4 == 0 {
					tm++
				}
				batch[k] = Event{Coord: []int{k % 5, k % 4}, Value: 1, Time: tm}
			}
			if err := st.PushBatch(bg, batch); err != nil {
				return
			}
		}
	}()

	// Wait for the mailbox to actually fill so the read contends with a
	// real backlog.
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if st.Snapshot().QueueDepth >= cfg.MailboxCapacity {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(bg, 30*time.Millisecond)
	_, err = st.Observed(ctx, []int{0, 0}, 0)
	cancel()
	elapsed := time.Since(start)
	// Either outcome is valid: the query was shed on arrival (full
	// mailbox → ErrObservedUnavailable), it queued but the deadline fired
	// first, or the writer happened to answer in time. What may not
	// happen is a stall behind the backlog.
	if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrObservedUnavailable) {
		t.Fatal(err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("bounded read took %v", elapsed)
	}
	t.Logf("Observed under backlog: err=%v in %v", err, elapsed)
	wg.Wait()
	// Once the backlog drains, the unbounded variant still works.
	if _, err := st.Observed(bg, []int{0, 0}, 0); err != nil {
		t.Fatal(err)
	}
}

// A deadline-bounded Observed read must never take the mailbox slots
// producers need: with a capacity-1 mailbox there is no spare slot to
// leave, so the bounded read is always shed with ErrObservedUnavailable —
// immediately, regardless of backlog. The unbounded form still works.
func TestEngineObservedShedsWhenNoSpareSlot(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	cfg := validStreamConfig()
	cfg.MailboxCapacity = 1
	st, err := e.AddStream("s", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push(bg, []int{2, 3}, 7, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(bg, time.Second)
	defer cancel()
	start := time.Now()
	_, err = st.Observed(ctx, []int{2, 3}, 2)
	if !errors.Is(err, ErrObservedUnavailable) {
		t.Fatalf("bounded read on capacity-1 mailbox = %v, want ErrObservedUnavailable", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("shed read waited instead of failing fast")
	}
	// The deadline-free form queues as a control message and answers.
	if v, err := st.Observed(bg, []int{2, 3}, 2); err != nil || v != 7 {
		t.Fatalf("unbounded Observed = (%v, %v), want 7", v, err)
	}
}

// Context cancellation must unblock every blocking client call: a
// PushBatch blocked on a full mailbox under BackpressureBlock, and a
// control op (Flush) waiting behind a jammed writer.
func TestEngineContextCancellationUnblocks(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	cfg := validStreamConfig()
	cfg.MailboxCapacity = 1
	st, err := e.AddStream("s", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm := fillAndStart(t, st, 13)
	stallWriter(t, st, tm) // writer busy for a while
	// Fill the single mailbox slot so the next put must block.
	for deadline := time.Now().Add(2 * time.Second); ; {
		if err := func() error {
			ctx, cancel := context.WithTimeout(bg, time.Millisecond)
			defer cancel()
			return st.PushBatch(ctx, []Event{{Coord: []int{0, 0}, Value: 1, Time: tm}})
		}(); err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("blocked PushBatch err = %v, want DeadlineExceeded", err)
			}
			break // the mailbox is full and the put blocked: cancellation worked
		}
		if !time.Now().Before(deadline) {
			t.Skip("writer drained too fast to observe a blocked put")
		}
	}

	// A control op queued behind the backlog must also honor its context
	// while waiting for the writer's answer.
	start := time.Now()
	ctx, cancel := context.WithTimeout(bg, 5*time.Millisecond)
	err = st.Flush(ctx)
	cancel()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Flush err = %v", err)
	}
	if err == nil {
		t.Log("writer caught up before the deadline; flush completed")
	} else if time.Since(start) > 2*time.Second {
		t.Fatalf("cancelled Flush took %v", time.Since(start))
	}

	// An already-cancelled context fails fast on every path.
	done, cancelNow := context.WithCancel(bg)
	cancelNow()
	if err := st.PushBatch(done, []Event{{Coord: []int{0, 0}, Value: 1, Time: tm}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled PushBatch err = %v, want Canceled", err)
	}
	if err := st.Flush(done); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Flush err = %v", err)
	}
	// The engine is still healthy afterwards.
	if err := st.Flush(bg); err != nil {
		t.Fatal(err)
	}
}

// DropOldest accounting: with equal-size all-valid batches, the events the
// stats report as ingested plus the events inside dropped batches must
// equal everything pushed — eviction loses whole batches, never partial
// ones, and rejected-event counters stay untouched.
func TestEngineDropOldestAccounting(t *testing.T) {
	const (
		batchSize = 512
		nBatches  = 200
	)
	e := NewEngine()
	defer e.Close()
	cfg := validStreamConfig()
	cfg.MailboxCapacity = 1
	cfg.Backpressure = BackpressureDropOldest
	st, err := e.AddStream("s", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All events at time 0: always valid, cheap to apply, order-free.
	batch := make([]Event, batchSize)
	for k := range batch {
		batch[k] = Event{Coord: []int{k % 5, k % 4}, Value: 1, Time: 0}
	}
	for b := 0; b < nBatches; b++ {
		if err := st.PushBatch(bg, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(bg); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if snap.IngestErrors != 0 {
		t.Fatalf("IngestErrors = %d, want 0", snap.IngestErrors)
	}
	if snap.Ingested+snap.Dropped*batchSize != nBatches*batchSize {
		t.Fatalf("accounting broken: ingested %d + dropped %d × %d != %d pushed",
			snap.Ingested, snap.Dropped, batchSize, nBatches*batchSize)
	}
	// A capacity-1 mailbox fed 200 batches from a tight loop must have
	// evicted something, or the test exercised nothing.
	if snap.Dropped == 0 {
		t.Fatal("no batches dropped; eviction path not exercised")
	}
	t.Logf("dropped %d/%d batches, ingested %d events", snap.Dropped, nBatches, snap.Ingested)
}

// Engine.Checkpoint must be safe to run concurrently with batched
// ingestion and stream add/remove churn (run under -race in CI). Errors
// from checkpointing a stream that vanished mid-iteration are expected;
// data races and deadlocks are not.
func TestEngineCheckpointConcurrentWithIngestAndRemove(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	steady, err := e.AddStream("steady", validStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddStream("churn", validStreamConfig()); err != nil {
		t.Fatal(err)
	}
	fillAndStart(t, steady, 5)

	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() { // continuous batched ingestion
		defer wg.Done()
		tm := int64(1000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]Event, 32)
			for k := range batch {
				tm++
				batch[k] = Event{Coord: []int{k % 5, k % 4}, Value: 1, Time: tm}
			}
			if err := steady.PushBatch(bg, batch); err != nil {
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // stream churn
		defer wg.Done()
		for i := 0; i < 25; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = e.RemoveStream("churn")
			_, _ = e.AddStream("churn", validStreamConfig())
		}
	}()

	for i := 0; i < 15; i++ {
		_ = e.Checkpoint(bg, io.Discard) // unknown-stream errors are fine
	}
	close(stop)
	wg.Wait()

	// With the churn settled, a final checkpoint must round-trip.
	var buf bytes.Buffer
	if err := e.Checkpoint(bg, &buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := len(restored.Streams()); got != 2 {
		t.Fatalf("restored %d streams want 2", got)
	}
}
