package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// operation share Op; Parent is the span that caused this one (0 for an
// operation's top-level calls). Rows and Nodes carry the call's counts
// (rows returned, R-tree nodes visited) where it has them.
type span struct {
	ID     int64  `json:"id"`
	Op     int64  `json:"op"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rows   int64  `json:"rows,omitempty"`
	Nodes  int64  `json:"nodes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	ops   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int64 { return t.ops.Add(1) }

// record stores a finished span and returns its id.
func (t *tracer) record(name string, op, parent int64, start, end time.Time, rows, nodes int) int64 {
	s := span{
		ID: t.ids.Add(1), Op: op, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
		Rows: int64(rows), Nodes: int64(nodes),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// byName groups the spans by name.
func (t *tracer) byName() map[string][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]span{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// spanTimes maps a per-layer time metric to the span it averages and
// the unit divisor. Set-up and open spans report the median over the
// run's repetitions, like setup_s and open_ms; per-call spans report
// the mean, so self times add up along the ladder.
var spanTimes = []struct {
	metric, span string
	unit         time.Duration
	median       bool
}{
	{"pictdb.catalog_load_ms", "pictdb.catalog_load", time.Millisecond, true},
	{"pager.recover_ms", "pager.recover", time.Millisecond, true},
	{"pack.attach_s", "pack.attach", time.Second, true},
	{"pictdb.write_apply_us", "pictdb.write_apply", time.Microsecond, false},
	{"pictdb.write_commit_us", "pictdb.write_commit", time.Microsecond, false},
	{"pictdb.snapshot_pin_ms", "pictdb.snapshot_pin", time.Millisecond, false},
	{"pictdb.snapshot_exec_us", "pictdb.snapshot_exec", time.Microsecond, false},
	{"psql.parse_us", "psql.parse", time.Microsecond, false},
	{"relation.search_us", "relation.search", time.Microsecond, false},
	{"relation.insert_us", "relation.insert", time.Microsecond, false},
	{"relation.delete_us", "relation.delete", time.Microsecond, false},
	{"relation.join_ms", "relation.join", time.Millisecond, false},
	{"rtree.search_us", "rtree.search", time.Microsecond, false},
	{"btree.lookup_us", "btree.lookup", time.Microsecond, false},
}

// finishTrace derives the span-based per-layer metrics. Each metric in
// notApplicable the workload did not produce reports 0 and is named in
// the environment block; any other one stays missing, which fails the
// run.
func (r *run) finishTrace(notApplicable []string) {
	spans := r.tracer.byName()
	for _, st := range spanTimes {
		ss := spans[st.span]
		if len(ss) == 0 {
			continue
		}
		vals := make([]float64, len(ss))
		sum := 0.0
		for i, s := range ss {
			vals[i] = float64(s.dur()) / float64(st.unit)
			sum += vals[i]
		}
		if st.median {
			r.set(st.metric, median(vals))
		} else {
			r.set(st.metric, sum/float64(len(vals)))
		}
	}
	meanNodes := func(name string) (float64, bool) {
		ss := spans[name]
		if len(ss) == 0 {
			return 0, false
		}
		n := 0.0
		for _, s := range ss {
			n += float64(s.Nodes)
		}
		return n / float64(len(ss)), true
	}
	if v, ok := meanNodes("relation.search"); ok {
		r.set("relation.nodes_per_search", v)
	}
	if v, ok := meanNodes("rtree.search"); ok {
		r.set("rtree.nodes_per_search", v)
	}
	perCount := func(name string, byNodes bool, unit time.Duration) (float64, bool) {
		var num, den float64
		for _, s := range spans[name] {
			if byNodes {
				num += float64(s.Rows)
				den += float64(s.Nodes)
			} else {
				num += float64(s.dur()) / float64(unit)
				den += float64(s.Rows)
			}
		}
		return ratio(num, den), den > 0
	}
	if v, ok := perCount("relation.getbatch", false, time.Nanosecond); ok {
		r.set("relation.getbatch_ns_per_row", v)
	}
	if v, ok := perCount("relation.join", true, 0); ok {
		r.set("relation.join_pairs_per_node", v)
	}
	if v, ok := perCount("psql.query", true, 0); ok {
		r.set("psql.rows_per_node", v)
	}

	// psql self time: a replayed single-window query's psql.query span
	// minus the relation search and GetBatch spans of the same window.
	// Queries with a kind conjunct are left out: the planner may answer
	// them from the B-tree instead.
	children := map[int64]time.Duration{}
	for _, name := range []string{"relation.search", "relation.getbatch"} {
		for _, s := range spans[name] {
			children[s.Op] += s.dur()
		}
	}
	for _, s := range spans["btree.lookup"] {
		delete(children, s.Op)
	}
	var self []float64
	for _, s := range spans["psql.query"] {
		if c, ok := children[s.Op]; ok {
			self = append(self, us(s.dur()-c))
		}
	}
	if len(self) > 0 {
		sum := 0.0
		for _, v := range self {
			sum += v
		}
		r.set("psql.self_us", sum/float64(len(self)))
	}
	total := 0
	for _, ss := range spans {
		total += len(ss)
	}
	r.set("trace.spans", float64(total))

	var missing []string
	for _, name := range notApplicable {
		if _, ok := r.metrics[name]; !ok {
			r.set(name, 0)
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	r.env["not_applicable"] = missing
	spanCounts := map[string]int{}
	for name, ss := range spans {
		spanCounts[name] = len(ss)
	}
	r.env["span_counts"] = spanCounts
}
