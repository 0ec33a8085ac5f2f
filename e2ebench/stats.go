package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks (the "type 7" estimator). sorted must be ascending
// and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailLevels are the percentiles a timing's tail may be reported at,
// highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailLevel returns the highest percentile with at least ten of n samples
// beyond it, or 0 when n is too small for any (fewer than 20 samples).
func tailLevel(n int) float64 {
	for _, q := range tailLevels {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0
}

// summary is one timing's sample accounting: the median, the highest
// percentile the sample count supports, and the count itself.
type summary struct {
	N     int
	P50   float64
	TailQ float64
	Tail  float64
	Max   float64
	Mean  float64
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	out := summary{N: len(s), P50: quantile(s, 0.5), Max: s[len(s)-1], Mean: sum / float64(len(s))}
	if q := tailLevel(len(s)); q > 0 {
		out.TailQ, out.Tail = q, quantile(s, q)
	}
	return out
}

// percentileAt returns the q-quantile of xs, or 0 for an empty sample.
func percentileAt(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func (s summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	if s.TailQ == 0 {
		return fmt.Sprintf("p50=%.4g max=%.4g n=%d", s.P50, s.Max, s.N)
	}
	return fmt.Sprintf("p50=%.4g p%s=%.4g max=%.4g n=%d", s.P50, pctLabel(s.TailQ), s.Tail, s.Max, s.N)
}

func pctLabel(q float64) string {
	return strconv.FormatFloat(q*100, 'f', -1, 64)
}

// tickSend is one ingested trace tick: its stream time and the instant
// (relative to the phase start) it was due to be sent.
type tickSend struct {
	Time int64
	Due  time.Duration
}

// poll is one freshness observation: when it completed and the published
// stream time it saw.
type poll struct {
	At  time.Duration
	Now int64
}

// freshness matches every tick to the first poll that saw a snapshot with
// streamNow ≥ the tick's time and returns, per tick, the time from the
// tick's due instant to that poll. A snapshot is published only after
// whole batches, so streamNow ≥ t means tick t was fully applied. Ticks no
// poll ever saw are counted in missed. sends must be in stream-time order
// and polls in completion order; a poll completing before a tick was due
// cannot witness it.
func freshness(sends []tickSend, polls []poll) (fresh []time.Duration, missed int) {
	j := 0
	for _, s := range sends {
		for j < len(polls) && (polls[j].Now < s.Time || polls[j].At < s.Due) {
			j++
		}
		if j == len(polls) {
			missed++
			continue
		}
		fresh = append(fresh, polls[j].At-s.Due)
	}
	return fresh, missed
}

// span is one timed call into a layer. Parent is the index of the
// enclosing span, or -1; Batch groups the spans of one trace tick.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int32
	Batch      int32
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its direct children cover. Children of one parent never
// overlap (the replay is sequential).
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				child[s.Parent] += hi - lo
			}
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += s.End - s.Start - child[i]
	}
	return out
}

// promSample is one parsed exposition line.
type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// parseProm parses Prometheus text exposition, skipping comments.
func parseProm(text string) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var s promSample
		rest := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("prom: unbalanced labels in %q", line)
			}
			s.Name = line[:i]
			labels, err := parseLabels(line[i+1 : j])
			if err != nil {
				return nil, fmt.Errorf("prom: %q: %w", line, err)
			}
			s.Labels = labels
			rest = line[j+1:]
		} else {
			sp := strings.IndexByte(line, ' ')
			if sp < 0 {
				return nil, fmt.Errorf("prom: no value in %q", line)
			}
			s.Name, rest = line[:sp], line[sp:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: value in %q: %w", line, err)
		}
		s.Value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

func parseLabels(s string) (map[string]string, error) {
	out := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label list %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		var val strings.Builder
		i := eq + 2
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				continue
			}
			val.WriteByte(s[i])
		}
		if i >= len(s) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		out[key] = val.String()
		s = strings.TrimLeft(s[i+1:], ", ")
	}
	return out, nil
}

// scrape is one parsed /metrics response.
type scrape []promSample

// value sums the samples of a family whose labels include every pair in
// match (pairs as "key", "value", ...).
func (sc scrape) value(name string, match ...string) float64 {
	total := 0.0
	for _, s := range sc {
		if s.Name == name && labelsMatch(s.Labels, match) {
			total += s.Value
		}
	}
	return total
}

func labelsMatch(l map[string]string, match []string) bool {
	for i := 0; i+1 < len(match); i += 2 {
		if l[match[i]] != match[i+1] {
			return false
		}
	}
	return true
}

// histDelta is a histogram's change between two scrapes: per-bucket
// (non-cumulative) counts with their upper bounds, plus sum and count.
type histDelta struct {
	Upper  []float64
	Counts []float64
	Sum    float64
	Count  float64
}

// histogramDelta subtracts scrape a from scrape b for histogram family
// name, restricted to series matching the label pairs.
func histogramDelta(a, b scrape, name string, match ...string) histDelta {
	cum := func(sc scrape) map[float64]float64 {
		out := map[float64]float64{}
		for _, s := range sc {
			if s.Name == name+"_bucket" && labelsMatch(s.Labels, match) {
				le, err := strconv.ParseFloat(s.Labels["le"], 64)
				if err != nil {
					continue
				}
				out[le] += s.Value
			}
		}
		return out
	}
	ca, cb := cum(a), cum(b)
	var h histDelta
	for le := range cb {
		h.Upper = append(h.Upper, le)
	}
	sort.Float64s(h.Upper)
	prev := 0.0
	for _, le := range h.Upper {
		c := cb[le] - ca[le]
		h.Counts = append(h.Counts, c-prev)
		prev = c
	}
	h.Sum = b.value(name+"_sum", match...) - a.value(name+"_sum", match...)
	h.Count = b.value(name+"_count", match...) - a.value(name+"_count", match...)
	return h
}

// quantile estimates the q-quantile by linear interpolation inside the
// bucket that holds it (the lower edge of the first bucket is 0; a value
// in the +Inf bucket reports the last finite bound).
func (h histDelta) quantile(q float64) float64 {
	total := 0.0
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * total
	seen := 0.0
	for i, c := range h.Counts {
		if c > 0 && seen+c >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.Upper[i-1]
			}
			hi := h.Upper[i]
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-seen)/c
		}
		seen += c
	}
	return h.Upper[len(h.Upper)-1]
}

func (h histDelta) mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / h.Count
}
