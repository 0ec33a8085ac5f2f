package window

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"slicenstitch/internal/stream"
	"slicenstitch/internal/tensor"
)

func TestWindowEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	win := New([]int{4, 3}, 3, 5)
	tm := int64(0)
	for i := 0; i < 60; i++ {
		tm += int64(rng.Intn(2))
		win.AdvanceTo(tm, nil)
		win.Ingest(stream.Tuple{Coord: []int{rng.Intn(4), rng.Intn(3)}, Value: 1, Time: tm})
	}
	var buf bytes.Buffer
	if err := win.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWindow(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Now() != win.Now() || got.W() != win.W() || got.Period() != win.Period() {
		t.Fatalf("geometry/clock mismatch: %d/%d %d/%d %d/%d",
			got.Now(), win.Now(), got.W(), win.W(), got.Period(), win.Period())
	}
	if !got.X().EqualApprox(win.X(), 0) {
		t.Fatal("window entries mismatch")
	}
	if keys, _ := win.X().Entries(); len(keys) == win.X().NNZ() {
		t.Fatal("live window holds no tombstones; the order check below would not cover them")
	}
	assertSameIterationOrder(t, got.X(), win.X())
	if got.Pending() != win.Pending() {
		t.Fatalf("pending %d != %d", got.Pending(), win.Pending())
	}

	// Continuing both windows with identical input produces identical
	// states at all times — the schedule survived.
	horizon := tm + int64(3)*5 + 1
	var a, b []Change
	win.Drive(nil, horizon, func(c Change) { a = append(a, c) })
	got.Drive(nil, horizon, func(c Change) { b = append(b, c) })
	if len(a) != len(b) {
		t.Fatalf("replayed %d vs %d changes", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Time != b[i].Time || a[i].W != b[i].W {
			t.Fatalf("change %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if !got.X().EqualApprox(win.X(), 0) {
		t.Fatal("windows diverged after continued replay")
	}
	assertSameIterationOrder(t, got.X(), win.X())
}

// assertSameIterationOrder fails unless got iterates the same (key, value)
// sequence, bit for bit, as want: the order every MTTKRP and fitness sum
// accumulates in, which a restored window must reproduce.
func assertSameIterationOrder(t *testing.T, got, want *tensor.Sparse) {
	t.Helper()
	type entry struct {
		k uint64
		v uint64
	}
	var a, b []entry
	got.ForEachKey(func(k uint64, v float64) { a = append(a, entry{k, math.Float64bits(v)}) })
	want.ForEachKey(func(k uint64, v float64) { b = append(b, entry{k, math.Float64bits(v)}) })
	if len(a) != len(b) {
		t.Fatalf("iteration length %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iteration position %d: %+v != %+v", i, a[i], b[i])
		}
	}
}

func TestDecodeWindowRejectsGarbage(t *testing.T) {
	if _, err := DecodeWindow(strings.NewReader("nope")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestEncodeEmptyWindow(t *testing.T) {
	win := New([]int{2}, 2, 3)
	var buf bytes.Buffer
	if err := win.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWindow(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.X().NNZ() != 0 || got.Pending() != 0 {
		t.Fatal("empty window did not round-trip empty")
	}
}
