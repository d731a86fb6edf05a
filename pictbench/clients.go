package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	pictdb "repro"
	"repro/internal/geom"
	"repro/internal/psql"
	"repro/internal/rtree"
)

// traceEvery is the sampling interval of a traced read phase: every
// traceEvery-th single-window query of a client, and every nested
// mapping and juxtaposition, is traced.
const traceEvery = 4

// execFunc runs one query for a read client. op is 0 in an untraced
// phase; otherwise it is the operation id the call's spans belong to.
type execFunc func(q *query, op int64) (*pictdb.Result, error)

// liveExec runs queries on a live database handle through
// Database.Query.
func (r *run) liveExec(db *pictdb.Database) execFunc {
	return func(q *query, op int64) (*pictdb.Result, error) {
		t0 := time.Now()
		res, err := db.Query(q.text)
		if op != 0 && err == nil {
			r.tracer.record("psql.query", op, 0, t0, time.Now(), res.Len(), res.NodesVisited)
		}
		return res, err
	}
}

// readPhase runs n read clients, each a closed loop over queries drawn
// from m, for d or until done is closed (nil: never). With observe
// set, each query's row count is recorded for the static-database
// oracles. In a traced phase every traceEvery-th search, and every
// other query, runs with an operation id, so exec records its spans,
// after replaying it down the layer ladder on db when db is non-nil.
// It returns the merged latencies and the phase's wall time.
func (r *run) readPhase(n int, d time.Duration, done <-chan struct{}, m *mix, label int64, exec execFunc, observe, traced bool, db *pictdb.Database) (*latencies, time.Duration) {
	per := make([]latencies, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := m.dealer(r.rng(label + int64(c)))
			for i := 0; time.Now().Before(deadline); i++ {
				select {
				case <-done:
					return
				default:
				}
				q := next()
				var op int64
				if traced && (i%traceEvery == 0 || q.class != opSearch) {
					op = r.tracer.newOp()
					if db != nil {
						r.ladder(db, q, op)
					}
				}
				t0 := time.Now()
				res, err := exec(q, op)
				dt := time.Since(t0)
				if !r.op(err) {
					continue
				}
				per[c].add(q.class, dt)
				if observe {
					q.observe(res.Len())
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all latencies
	for c := range per {
		all.merge(&per[c])
	}
	return &all, elapsed
}

// ladder replays q against db one layer at a time, recording a span per
// call: psql.Parse; for a single-window mapping the packed R-tree
// search of every shard, Relation.SearchArea, the B-tree lookup of the
// kind conjunct and Relation.GetBatch of the matches; for a
// juxtaposition Relation.JuxtaposeSpatial. The query itself then runs
// as the psql.query span of the same operation.
func (r *run) ladder(db *pictdb.Database, q *query, op int64) {
	rel, _ := db.Relation(sitesRel)
	t0 := time.Now()
	_, err := psql.Parse(q.text)
	r.tracer.record("psql.parse", op, 0, t0, time.Now(), 0, 0)
	r.ladderErr(err)
	switch q.class {
	case opSearch:
		t0 = time.Now()
		nodes := 0
		for _, si := range rel.Spatials(siteMap) {
			nodes += si.PackedTree().Search(q.win, func(rtree.Item) bool { return true })
		}
		r.tracer.record("rtree.search", op, 0, t0, time.Now(), 0, nodes)

		t0 = time.Now()
		ids, visited, err := rel.SearchArea(siteMap, q.win, geom.CoveredBy)
		r.tracer.record("relation.search", op, 0, t0, time.Now(), len(ids), visited)
		r.ladderErr(err)

		if q.kind >= 0 {
			t0 = time.Now()
			kids, err := rel.LookupEqual("kind", pictdb.I(q.kind))
			r.tracer.record("btree.lookup", op, 0, t0, time.Now(), len(kids), 0)
			r.ladderErr(err)
		}

		// The mapping projects seq only, so materialize that column, as
		// the executor does.
		t0 = time.Now()
		_, err = rel.GetBatch(ids, seqOnly, 0)
		r.tracer.record("relation.getbatch", op, 0, t0, time.Now(), len(ids), 0)
		r.ladderErr(err)

		hit, total, err := rel.ShardFanout(siteMap, q.win)
		r.ladderErr(err)
		r.fanMu.Lock()
		r.fanHit += hit
		r.fanTotal += total
		r.fanMu.Unlock()
	case opJoin:
		zones, _ := db.Relation(zonesRel)
		t0 = time.Now()
		pairs, visited, err := rel.JuxtaposeSpatial(siteMap, zones, zoneMap, geom.CoveredBy, 0)
		r.tracer.record("relation.join", op, 0, t0, time.Now(), len(pairs), visited)
		r.ladderErr(err)
	}
}

// seqOnly is the GetBatch column mask of a mapping that projects seq.
var seqOnly = []bool{true, false, false}

// ladderErr counts a failed layer call of a replay as a failed
// operation.
func (r *run) ladderErr(err error) {
	if err != nil {
		r.op(fmt.Errorf("layer replay: %w", err))
	}
}

// setFanout sets relation.shard_fanout from the replayed windows.
func (r *run) setFanout() {
	if r.fanTotal > 0 {
		r.set("relation.shard_fanout", float64(r.fanHit)/float64(r.fanTotal))
	}
}

// lsmState sums the LSM tiers of sites' spatial indexes over shards:
// delta items, tombstones and repacks so far.
func lsmState(db *pictdb.Database) (delta, tombs, repacks int) {
	rel, _ := db.Relation(sitesRel)
	for _, si := range rel.Spatials(siteMap) {
		delta += si.DeltaLen()
		tombs += si.TombstoneCount()
		repacks += si.Repacks()
	}
	return delta, tombs, repacks
}

// episode is one slice of a measured phase.
type episode struct {
	d      time.Duration
	traced bool
}

// episodes splits the measured time into episodes of about length
// seconds: an untraced run's are all untraced; a traced run's first half
// is untraced and its second half traced.
func (r *run) episodes(length float64) []episode {
	du, dt := r.phaseSeconds()
	var eps []episode
	split := func(d time.Duration, traced bool) {
		n := max(1, int(math.Round(d.Seconds()/length)))
		for i := 0; i < n; i++ {
			eps = append(eps, episode{d / time.Duration(n), traced})
		}
	}
	split(du, false)
	if r.traced {
		split(dt, true)
	}
	return eps
}

// overhead sets trace.overhead_pct: how much slower the traced half of
// a phase completed operations than its untraced half.
func (r *run) overhead(untraced, traced float64) {
	r.set("trace.overhead_pct", 100*(1-ratio(traced, untraced)))
}
