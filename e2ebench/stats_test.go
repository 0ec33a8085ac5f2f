package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}, {0.99, 3.97},
	} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", s, c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
}

func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 0.5}, {39, 0.5}, {40, 0.75}, {100, 0.9}, {199, 0.9},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: summarize must sort
	}
	s := summarize(xs)
	if s.N != 200 || s.TailQ != 0.95 || s.Max != 200 || s.Mean != 100.5 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.P50-100.5) > 1e-12 || math.Abs(s.Tail-190.05) > 1e-9 {
		t.Fatalf("p50 %v tail %v", s.P50, s.Tail)
	}
	if got := summarize(nil); got.N != 0 {
		t.Fatalf("empty summary = %+v", got)
	}
}

func TestFreshness(t *testing.T) {
	ms := time.Millisecond
	sends := []tickSend{{Time: 10, Due: 0}, {Time: 11, Due: 5 * ms}, {Time: 12, Due: 10 * ms}, {Time: 13, Due: 20 * ms}}
	polls := []poll{
		{At: 3 * ms, Now: 9},   // sees nothing new
		{At: 7 * ms, Now: 11},  // first to see ticks 10 and 11
		{At: 9 * ms, Now: 12},  // sees tick 12 before it was due: cannot witness it
		{At: 14 * ms, Now: 12}, // first valid witness of tick 12
	}
	fresh, missed := freshness(sends, polls)
	want := []time.Duration{7 * ms, 2 * ms, 4 * ms}
	if missed != 1 || len(fresh) != len(want) {
		t.Fatalf("fresh %v missed %d", fresh, missed)
	}
	for i := range want {
		if fresh[i] != want[i] {
			t.Errorf("tick %d: fresh %v, want %v", i, fresh[i], want[i])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{Name: "batch", Start: 0, End: 100 * us, Parent: -1},
		{Name: "advance", Start: 10 * us, End: 60 * us, Parent: 0},
		{Name: "apply", Start: 20 * us, End: 30 * us, Parent: 1},
		{Name: "apply", Start: 35 * us, End: 55 * us, Parent: 1},
		{Name: "apply", Start: 70 * us, End: 90 * us, Parent: 0},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"batch": 30 * us, "advance": 20 * us, "apply": 50 * us}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, self[k], v)
		}
	}
	var total time.Duration
	for _, v := range self {
		total += v
	}
	if total != 100*us {
		t.Errorf("self times sum to %v, want the root's 100µs", total)
	}
}

const scrapeA = `# HELP sns_ingest_events_total Events applied.
# TYPE sns_ingest_events_total counter
sns_ingest_events_total{stream="bench"} 100
sns_ingest_events_total{stream="other"} 7
sns_http_request_duration_seconds_bucket{route="/v1/streams/{name}/events",method="POST",le="0.001"} 10
sns_http_request_duration_seconds_bucket{route="/v1/streams/{name}/events",method="POST",le="0.002"} 10
sns_http_request_duration_seconds_bucket{route="/v1/streams/{name}/events",method="POST",le="+Inf"} 10
sns_http_request_duration_seconds_sum{route="/v1/streams/{name}/events",method="POST"} 0.005
sns_http_request_duration_seconds_count{route="/v1/streams/{name}/events",method="POST"} 10
sns_http_request_duration_seconds_bucket{route="/v1/streams/{name}/predict",method="POST",le="+Inf"} 4
`

const scrapeB = `sns_ingest_events_total{stream="bench"} 250
sns_ingest_events_total{stream="other"} 9
sns_http_request_duration_seconds_bucket{route="/v1/streams/{name}/events",method="POST",le="0.001"} 20
sns_http_request_duration_seconds_bucket{route="/v1/streams/{name}/events",method="POST",le="0.002"} 40
sns_http_request_duration_seconds_bucket{route="/v1/streams/{name}/events",method="POST",le="+Inf"} 40
sns_http_request_duration_seconds_sum{route="/v1/streams/{name}/events",method="POST"} 0.05
sns_http_request_duration_seconds_count{route="/v1/streams/{name}/events",method="POST"} 40
sns_http_request_duration_seconds_bucket{route="/v1/streams/{name}/predict",method="POST",le="+Inf"} 9
`

func TestScrapeDeltas(t *testing.T) {
	a, err := parseProm(scrapeA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseProm(scrapeB)
	if err != nil {
		t.Fatal(err)
	}
	if d := b.value("sns_ingest_events_total", "stream", "bench") - a.value("sns_ingest_events_total", "stream", "bench"); d != 150 {
		t.Errorf("events delta = %v, want 150", d)
	}
	h := histogramDelta(a, b, "sns_http_request_duration_seconds", "route", "/v1/streams/{name}/events", "method", "POST")
	// 30 new observations: 10 in (0, 1ms], 20 in (1ms, 2ms].
	if h.Count != 30 || math.Abs(h.Sum-0.045) > 1e-12 {
		t.Fatalf("count %v sum %v", h.Count, h.Sum)
	}
	if got := h.mean(); math.Abs(got-0.0015) > 1e-12 {
		t.Errorf("mean = %v", got)
	}
	// The median (rank 15) is 5 of the 20 observations into (1ms, 2ms].
	if got := h.quantile(0.5); math.Abs(got-0.00125) > 1e-12 {
		t.Errorf("p50 = %v, want 0.00125", got)
	}
	if got := h.quantile(0.2); math.Abs(got-0.0006) > 1e-12 {
		t.Errorf("p20 = %v, want 0.0006", got)
	}
	if got := (histDelta{}).quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v", got)
	}
}

func TestParsePromLabels(t *testing.T) {
	s, err := parseProm(`m{a="x\"y",b="1"} 2.5` + "\n" + `plain 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 || s[0].Labels["a"] != `x"y` || s[0].Labels["b"] != "1" || s[0].Value != 2.5 || s[1].Name != "plain" || s[1].Value != 3 {
		t.Fatalf("parsed %+v", s)
	}
	if _, err := parseProm(`m{a="x} 1`); err == nil {
		t.Error("unterminated label value accepted")
	}
}
