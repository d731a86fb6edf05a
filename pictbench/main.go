// Command pictbench is pictdb's benchmark: one process runs one of
// three workloads against a file database, checks the engine's answers
// against oracles, and prints every metric by name with its unit.
//
//	pictbench --workload paper-static --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics of a separate traced run. The line before it is an
// environment block (cores, Go version, data size against buffer pool,
// flush policy, sample counts). README.md in this directory describes
// the workloads and what each metric is meant to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics an untraced run prints, on every workload.
// README.md says which operation each one times on which workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"open_ms", "ms"},
	{"query_qps", "queries/s"},
	{"search_p50_us", "us"},
	{"search_p99_us", "us"},
	{"nested_p50_us", "us"},
	{"join_p50_ms", "ms"},
	{"join_p90_ms", "ms"},
	{"write_tps", "tuples/s"},
	{"write_p50_us", "us"},
	{"heap_mib", "MiB"},
	{"bytes_per_tuple", "B"},
}

// perLayer lists the metrics a traced run prints, on every workload. A
// metric in the workload's notApplicable list, a layer it does not
// reach, reports 0 and is named in the environment block's
// not_applicable list; any other metric the run did not produce fails
// it.
var perLayer = []metricDef{
	{"pictdb.catalog_load_ms", "ms"},
	{"pictdb.write_apply_us", "us"},
	{"pictdb.write_commit_us", "us"},
	{"pictdb.snapshot_pin_ms", "ms"},
	{"pictdb.snapshot_exec_us", "us"},
	{"psql.parse_us", "us"},
	{"psql.self_us", "us"},
	{"psql.cache_hit_ratio", "ratio"},
	{"psql.allocs_per_query", "allocs"},
	{"psql.rows_per_node", "rows/node"},
	{"relation.search_us", "us"},
	{"relation.nodes_per_search", "nodes"},
	{"relation.getbatch_ns_per_row", "ns/row"},
	{"relation.insert_us", "us"},
	{"relation.delete_us", "us"},
	{"relation.delta_items", "items"},
	{"relation.tombstones", "items"},
	{"relation.repacks", "count"},
	{"relation.shard_fanout", "ratio"},
	{"relation.shard_imbalance", "ratio"},
	{"relation.join_ms", "ms"},
	{"relation.join_pairs_per_node", "pairs/node"},
	{"rtree.search_us", "us"},
	{"rtree.nodes_per_search", "nodes"},
	{"btree.lookup_us", "us"},
	{"pack.attach_s", "s"},
	{"pager.recover_ms", "ms"},
	{"pager.hit_ratio", "ratio"},
	{"pager.misses_per_query", "pages"},
	{"pager.wal_commits_per_sync", "ratio"},
	{"pager.wal_bytes_per_user_byte", "ratio"},
	{"pager.checkpoints", "count"},
	{"pager.wal_peak_mib", "MiB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// workloads maps each workload name to its runner, its number of
// set-ups (cheap set-ups repeat more, so the median is steady) and the
// per-layer metrics it cannot produce.
var workloads = map[string]struct {
	run           func(*run) error
	setups        int
	notApplicable []string
}{
	// It takes no snapshots, deletes nothing and is unsharded.
	"paper-static": {runStatic, 5, []string{
		"pictdb.snapshot_exec_us", "pictdb.snapshot_pin_ms", "relation.delete_us", "relation.shard_imbalance"}},
	// A sharded relation cannot be snapshotted.
	"ingest-sharded": {runIngest, 5, []string{"pictdb.snapshot_exec_us", "pictdb.snapshot_pin_ms"}},
	// It is unsharded.
	"snapshot-mixed": {runSnapshot, 7, []string{"relation.shard_imbalance"}},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain parses args, runs one workload and writes the environment
// block and the result line to stdout. It returns the process exit
// code: 0 on success, 1 when a correctness check failed, 2 on a usage
// or set-up error (no result line is printed then).
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pictbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-static, ingest-sharded or snapshot-mixed")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	work := fs.String("work", ".bench_build/work", "directory for database files (removed afterwards)")
	traces := fs.String("traces", ".bench_build/traces", "directory the traced run writes its spans to")
	scale := fs.Float64("scale", 1, "multiplier on every data size (tests use a small one)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "pictbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "pictbench: --seconds and --scale must be positive, --trace 0 or 1")
		return 2
	}
	dir, err := os.MkdirTemp(ensureDir(*work), *name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "pictbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)

	r := newRun(*name, *seed, *seconds, *trace == 1, *scale, wl.setups, dir)
	cpu0 := readCPUTimes()
	if err := wl.run(r); err != nil {
		fmt.Fprintf(stderr, "pictbench: %s: %v\n", *name, err)
		return 2
	}
	if steal, ok := cpu0.stealShare(readCPUTimes()); ok {
		r.env["cpu_steal_frac"] = steal
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
		r.finishTrace(wl.notApplicable)
		if err := r.tracer.write(filepath.Join(*traces, fmt.Sprintf("%s-seed%d.json", *name, *seed))); err != nil {
			fmt.Fprintf(stderr, "pictbench: writing spans: %v\n", err)
			return 2
		}
	}
	res := result{Correct: len(r.checkErrs) == 0, Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			fmt.Fprintf(stderr, "pictbench: %s: metric %s was not measured\n", *name, d.Name)
			return 2
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, e := range r.checkErrs {
		fmt.Fprintf(stderr, "pictbench: %s: check failed: %v\n", *name, e)
	}
	env, _ := json.Marshal(map[string]any{"environment": r.environment()})
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n%s\n", env, line)
	if !res.Correct {
		return 1
	}
	return 0
}

func ensureDir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports a directory that cannot be made
	return dir
}
