package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	pictdb "repro"
	"repro/internal/pager"
	"repro/internal/psql"
	"repro/internal/relation"
)

// run is the state of one benchmark process: its inputs, the metrics
// measured so far, the correctness verdicts, and the tracer.
type run struct {
	name    string
	seed    int64
	seconds float64
	traced  bool
	scale   float64
	setups  int
	dir     string

	metrics   map[string]float64
	checkErrs []error
	attempted atomic.Int64
	failed    atomic.Int64
	tracer    *tracer
	// env holds workload-specific environment entries: sizes, pool
	// pages, sample counts.
	env map[string]any
	// failures keeps the first few operation errors for stderr.
	failMu   sync.Mutex
	failures []string
	// fanHit/fanTotal sum ShardFanout over replayed windows.
	fanMu            sync.Mutex
	fanHit, fanTotal int
	// userBytes sums the encoded size of tuples a traced run inserted.
	userBytes atomic.Int64
	// heap0 is the live heap just before the measured database is
	// opened: the benchmark's own inputs, which heap_mib leaves out.
	heap0 uint64
}

func newRun(name string, seed int64, seconds float64, traced bool, scale float64, setups int, dir string) *run {
	return &run{
		name: name, seed: seed, seconds: seconds, traced: traced,
		scale: scale, setups: setups, dir: dir,
		metrics: map[string]float64{},
		tracer:  newTracer(),
		env:     map[string]any{},
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// n scales a data size, keeping at least min.
func (r *run) n(size, min int) int {
	v := int(float64(size) * r.scale)
	if v < min {
		return min
	}
	return v
}

// rng returns a generator for one input stream of this run; streams
// with different labels are independent, and the same seed always
// yields the same inputs.
func (r *run) rng(label int64) *rand.Rand {
	return rand.New(rand.NewSource(r.seed*1_000_003 + label))
}

// op counts one attempted operation and, when err is non-nil, one
// failed one. Failed operations are never retried.
func (r *run) op(err error) bool {
	r.attempted.Add(1)
	if err == nil {
		return true
	}
	r.failed.Add(1)
	r.failMu.Lock()
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
	r.failMu.Unlock()
	return false
}

// check records a failed correctness check.
func (r *run) check(format string, args ...any) {
	r.checkErrs = append(r.checkErrs, fmt.Errorf(format, args...))
}

// phaseSeconds splits the measured time: an untraced run measures the
// whole of it; a traced run measures half untraced (the overhead
// baseline and the counter-based layer metrics) and half traced.
func (r *run) phaseSeconds() (untraced, traced time.Duration) {
	d := time.Duration(r.seconds * float64(time.Second))
	if !r.traced {
		return d, 0
	}
	return d / 2, d / 2
}

// environment is the block printed before the result line.
func (r *run) environment() map[string]any {
	env := map[string]any{
		"workload":     r.name,
		"seed":         r.seed,
		"seconds":      r.seconds,
		"traced":       r.traced,
		"scale":        r.scale,
		"setups":       r.setups,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"git_commit":   gitCommit(),
		"flush_policy": "WAL on; one fsync per Write group commit; WAL checkpoint at the default 4 MiB; LSM delta threshold at the default " + fmt.Sprint(relation.DefaultDeltaThreshold) + " items; background repacks",
		"psql_cache":   psql.DefaultStatementCacheSize,
		"page_bytes":   pager.PageSize,
	}
	for k, v := range r.env {
		env[k] = v
	}
	if len(r.failures) > 0 {
		env["first_failures"] = r.failures
	}
	return env
}

// gitCommit names the source revision: the build's VCS stamp when the
// tree was a git checkout, else "unknown".
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// cpuTimes is the machine-wide CPU time counters of /proc/stat's
// first line, in clock ticks; nil where there is no such file.
type cpuTimes []uint64

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	var t cpuTimes
	for _, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil
		}
		t = append(t, v)
	}
	return t
}

// stealShare returns the share of CPU time between c and later that the
// hypervisor gave to other guests (the eighth field). A virtual machine
// whose neighbours are busy runs everything slower; the environment
// block records it so such a run can be told apart.
func (c cpuTimes) stealShare(later cpuTimes) (float64, bool) {
	if len(c) < 8 || len(later) != len(c) {
		return 0, false
	}
	var total uint64
	for i := range c {
		total += later[i] - c[i]
	}
	return ratio(float64(later[7]-c[7]), float64(total)), total > 0
}

// --- opening and sizing databases --------------------------------------

// openDB opens (or creates) the database file at path. An untraced run
// uses pictdb.Open, as an application would. A traced run opens the
// main and existing shard pagers itself (recovery and mmap, as Open
// does) so it can read their counters and, when timed is set, time
// pager recovery apart from the catalog load.
func (r *run) openDB(path string, pool int, timed bool) (*pictdb.Database, *pager.Pager, error) {
	if !r.traced {
		db, err := pictdb.Open(path, pool)
		return db, nil, err
	}
	open := func(p string) (*pager.Pager, error) {
		pg, err := pager.Open(p, pool)
		if err != nil {
			return nil, err
		}
		if err := pg.EnableWAL(); err != nil {
			pg.Close()
			return nil, err
		}
		_ = pg.EnableMmap() // best effort, as pictdb.Open
		return pg, nil
	}
	t0 := time.Now()
	main, err := open(path)
	if err != nil {
		return nil, nil, err
	}
	var mu sync.Mutex
	shards := map[string]*pager.Pager{}
	matches, _ := filepath.Glob(path + ".*.s*")
	for _, m := range matches {
		if strings.HasSuffix(m, ".wal") {
			continue
		}
		sp, err := open(m)
		if err != nil {
			for _, p := range shards {
				p.Close()
			}
			main.Close()
			return nil, nil, err
		}
		shards[m] = sp
	}
	t1 := time.Now()
	// The catalog load asks for shard pagers concurrently.
	factory := func(rel string, shard int, mustExist bool) (*pager.Pager, error) {
		p := pictdb.ShardPath(path, rel, shard)
		mu.Lock()
		sp, ok := shards[p]
		delete(shards, p)
		mu.Unlock()
		switch {
		case ok:
			return sp, nil
		case mustExist:
			return nil, fmt.Errorf("shard file %s: %w", p, os.ErrNotExist)
		}
		return open(p)
	}
	db, err := pictdb.OpenWithPagerShards(main, factory)
	for _, p := range shards {
		p.Close()
	}
	if err != nil {
		return nil, nil, err
	}
	if timed {
		op := r.tracer.newOp()
		r.tracer.record("pager.recover", op, 0, t0, t1, 0, 0)
		r.tracer.record("pictdb.catalog_load", op, 0, t1, time.Now(), 0, 0)
	}
	return db, main, nil
}

// openTimed opens the built file r.setups times, closing all but the
// last handle, and reports the median as open_ms. It first records the
// live heap, by then the benchmark's generated inputs, as heap0.
func (r *run) openTimed(path string, pool int) (*pictdb.Database, *pager.Pager, error) {
	r.heap0 = liveHeap()
	var times []float64
	for i := 0; i < r.setups; i++ {
		runtime.GC() // start each open from the same heap
		t0 := time.Now()
		db, main, err := r.openDB(path, pool, true)
		if err != nil {
			return nil, nil, fmt.Errorf("open: %w", err)
		}
		times = append(times, msSince(t0))
		if i == r.setups-1 {
			r.set("open_ms", median(times))
			return db, main, nil
		}
		if err := db.Close(); err != nil {
			return nil, nil, fmt.Errorf("close after open: %w", err)
		}
	}
	return nil, nil, errors.New("unreachable")
}

// sizeEnv records the built database's size against its buffer pools:
// files page files, each with a pool of pool pages.
func (r *run) sizeEnv(path string, pool, files int) {
	data := filesBytes(path)
	poolBytes := pool * pager.PageSize * files
	r.env["data_bytes"], r.env["pool_bytes"] = data, poolBytes
	r.env["data_over_pool"] = float64(data) / float64(poolBytes)
}

// filesBytes sums the sizes of the main file, its shard files and
// every WAL beside them.
func filesBytes(path string) int64 {
	matches, _ := filepath.Glob(path + "*")
	var total int64
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
	}
	return total
}

// endOfRun checkpoints the WAL of a quiesced database holding live
// tuples, then records heap_mib (live heap after GC, less heap0) and
// bytes_per_tuple (every file's bytes per live tuple). Measuring at rest
// keeps both independent of when the last automatic checkpoint ran;
// WAL growth during the run shows in pager.wal_peak_mib. keep are the
// inputs heap0 counted: they stay live until the heap is read, so they
// cancel out of heap_mib.
func (r *run) endOfRun(db *pictdb.Database, path string, live int, keep ...any) error {
	if err := db.CheckpointWAL(); err != nil {
		return fmt.Errorf("checkpoint WAL: %w", err)
	}
	heap := liveHeap()
	runtime.KeepAlive(keep)
	r.set("heap_mib", (float64(heap)-float64(r.heap0))/(1<<20))
	r.env["input_heap_mib"] = float64(r.heap0) / (1 << 20)
	files := filesBytes(path)
	r.set("bytes_per_tuple", float64(files)/float64(live))
	r.env["file_bytes"] = files
	r.env["live_tuples"] = live
	return nil
}

// liveHeap returns the heap bytes still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// --- process-wide counters over a phase ---------------------------------

// counters is a reading of the process and pager counters; the
// difference of two readings prices the phase between them.
type counters struct {
	mallocs  uint64
	gcCPU    float64
	totalCPU float64
	cache    psql.CacheStats
	pool     pager.Stats
	wal      pager.WALStats
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:objects"},
}

// readCounters reads the counters of db and the given pagers.
func readCounters(db *pictdb.Database, pagers []*pager.Pager) counters {
	s := make([]metrics.Sample, len(cpuSamples))
	copy(s, cpuSamples)
	metrics.Read(s)
	c := counters{cache: db.CacheStats()}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		c.mallocs = s[2].Value.Uint64()
	}
	for _, p := range pagers {
		if p == nil {
			continue
		}
		st := p.Stats()
		c.pool.Hits += st.Hits
		c.pool.Misses += st.Misses
		c.pool.MmapPins += st.MmapPins
		w := p.WALStats()
		c.wal.Commits += w.Commits
		c.wal.Syncs += w.Syncs
		c.wal.Frames += w.Frames
		c.wal.Checkpoints += w.Checkpoints
		c.wal.Size += w.Size
	}
	return c
}

// allPagers returns the main pager (nil in an untraced run) and every
// shard pager of rel.
func allPagers(main *pager.Pager, rel *relation.Relation) []*pager.Pager {
	out := []*pager.Pager{main}
	if rel != nil && rel.Sharded() {
		for s := 0; s < rel.ShardCount(); s++ {
			out = append(out, rel.ShardPager(s))
		}
	}
	return out
}

// sub returns the counters accumulated from o to c; add sums two such
// differences.
func (c counters) sub(o counters) counters {
	return counters{
		mallocs: c.mallocs - o.mallocs, gcCPU: c.gcCPU - o.gcCPU, totalCPU: c.totalCPU - o.totalCPU,
		cache: psql.CacheStats{Hits: c.cache.Hits - o.cache.Hits, Misses: c.cache.Misses - o.cache.Misses},
		pool:  pager.Stats{Hits: c.pool.Hits - o.pool.Hits, Misses: c.pool.Misses - o.pool.Misses, MmapPins: c.pool.MmapPins - o.pool.MmapPins},
		wal: pager.WALStats{Commits: c.wal.Commits - o.wal.Commits, Syncs: c.wal.Syncs - o.wal.Syncs,
			Frames: c.wal.Frames - o.wal.Frames, Checkpoints: c.wal.Checkpoints - o.wal.Checkpoints},
	}
}

func (c counters) add(o counters) counters {
	var zero counters
	return c.sub(zero.sub(o))
}

// readLayerCounters sets the counter-based read-path layer metrics from
// the counters d of a phase that completed queries read operations.
func (r *run) readLayerCounters(d counters, queries int64) {
	q := float64(max(queries, 1))
	r.set("psql.allocs_per_query", float64(d.mallocs)/q)
	r.set("psql.cache_hit_ratio", ratio(float64(d.cache.Hits), float64(d.cache.Hits+d.cache.Misses)))
	pins := float64(d.pool.Hits + d.pool.MmapPins)
	miss := float64(d.pool.Misses)
	r.set("pager.hit_ratio", ratio(pins, pins+miss))
	r.set("pager.misses_per_query", miss/q)
	r.set("runtime.gc_cpu_frac", ratio(d.gcCPU, d.totalCPU))
}

// writeLayerCounters sets the WAL layer metrics from the counters d of
// a phase that wrote userBytes of encoded tuples, during which the WAL
// peaked at peak bytes.
func (r *run) writeLayerCounters(d counters, userBytes int64, peak int64) {
	r.set("pager.wal_commits_per_sync", ratio(float64(d.wal.Commits), float64(d.wal.Syncs)))
	r.set("pager.wal_bytes_per_user_byte", ratio(float64(d.wal.Frames)*walFrameBytes, float64(userBytes)))
	r.set("pager.checkpoints", float64(d.wal.Checkpoints))
	r.set("pager.wal_peak_mib", float64(peak)/(1<<20))
}

// walFrameBytes is the log size of one page record: a 24-byte frame
// header, the page image and a 4-byte CRC trailer.
const walFrameBytes = 24 + pager.PageSize + 4

// watchWAL samples the summed WAL size of pagers every few
// milliseconds until the returned stop is called. stop waits for the
// sampler to exit and returns the largest reading; later calls return
// it again.
func watchWAL(pagers []*pager.Pager) (stop func() int64) {
	done := make(chan struct{})
	out := make(chan int64, 1)
	go func() {
		var peak int64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			var size int64
			for _, p := range pagers {
				if p != nil {
					size += p.WALStats().Size
				}
			}
			peak = max(peak, size)
			select {
			case <-done:
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	var once sync.Once
	var peak int64
	return func() int64 {
		once.Do(func() {
			close(done)
			peak = <-out
		})
		return peak
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
