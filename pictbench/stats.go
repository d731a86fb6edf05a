package main

import (
	"sort"
	"time"
)

// opClass names the kinds of timed operations a client records.
type opClass int

const (
	opSearch opClass = iota // single-window mapping
	opNested                // nested mapping: zones window feeding a sites search
	opJoin                  // sites x zones juxtaposition
	opWrite                 // one Database.Write transaction
	numOpClasses
)

var opClassNames = [numOpClasses]string{"search", "nested", "join", "write"}

// latencies holds one client's (or a merged set of clients') samples
// per operation class, plus tuples acknowledged by writes.
type latencies struct {
	samples [numOpClasses][]time.Duration
	tuples  int64
}

func (l *latencies) add(c opClass, d time.Duration) { l.samples[c] = append(l.samples[c], d) }

// merge appends o's samples to l.
func (l *latencies) merge(o *latencies) {
	for c := range l.samples {
		l.samples[c] = append(l.samples[c], o.samples[c]...)
	}
	l.tuples += o.tuples
}

func (l *latencies) count(c opClass) int { return len(l.samples[c]) }

// reads is the number of read operations recorded.
func (l *latencies) reads() int { return l.count(opSearch) + l.count(opNested) + l.count(opJoin) }

// pct returns the p-th percentile (0..100) of class c by the
// nearest-rank method, or 0 with no samples.
func (l *latencies) pct(c opClass, p float64) time.Duration {
	s := append([]time.Duration(nil), l.samples[c]...)
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(p/100*float64(len(s))+0.5) - 1
	rank = min(max(rank, 0), len(s)-1)
	return s[rank]
}

// counts reports the sample count per class, for the environment block.
func (l *latencies) counts() map[string]int {
	out := map[string]int{}
	for c, name := range opClassNames {
		out[name] = len(l.samples[c])
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// setReadMetrics sets the read-side end-to-end metrics from the read
// clients' samples over a phase of length elapsed.
func (r *run) setReadMetrics(l *latencies, elapsed time.Duration) {
	r.set("query_qps", float64(l.reads())/elapsed.Seconds())
	r.set("search_p50_us", us(l.pct(opSearch, 50)))
	r.set("search_p99_us", us(l.pct(opSearch, 99)))
	r.set("nested_p50_us", us(l.pct(opNested, 50)))
	r.set("join_p50_ms", ms(l.pct(opJoin, 50)))
	r.set("join_p90_ms", ms(l.pct(opJoin, 90)))
}

// writeEpisodes holds each episode's write throughput and median
// latency. Writes wait on fsync, whose latency on shared disks comes in
// bursts; the median over episodes keeps one slow burst from setting a
// run's figures. For the same reason there is no write tail metric: on
// a shared disk a write p99 mostly measures the neighbours.
type writeEpisodes struct {
	tps, p50 []float64
	samples  int
}

// add records one episode's writes, made over elapsed.
func (w *writeEpisodes) add(l *latencies, elapsed time.Duration) {
	w.tps = append(w.tps, float64(l.tuples)/elapsed.Seconds())
	w.p50 = append(w.p50, us(l.pct(opWrite, 50)))
	w.samples += l.count(opWrite)
}

// setWriteMetrics sets the write-side end-to-end metrics: the medians
// over episodes.
func (r *run) setWriteMetrics(w *writeEpisodes) {
	r.set("write_tps", median(w.tps))
	r.set("write_p50_us", median(w.p50))
	r.env["write_tps_per_episode"], r.env["write_samples"] = w.tps, w.samples
}
