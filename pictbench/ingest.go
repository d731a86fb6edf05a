package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	pictdb "repro"
	"repro/internal/storage"
	"repro/internal/workload"
)

// ingestSkew is the insert and query distribution of ingest-sharded:
// 90% of points in the first 10% of the Hilbert order.
const ingestSkew = "hot:0.9:0.1"

// quotaRate sets how many tuples (inserted plus deleted) an
// ingest-sharded episode writes: this rate times the episode's length.
// At the 10k tuples/s of a 2-core box that is a third of the episode,
// so even at half that speed the quota is met before maxWriteShare.
const quotaRate = 3200

// maxWriteShare caps the part of each ingest-sharded episode spent
// writing, so a slow machine still leaves time for the query phase.
const maxWriteShare = 0.8

// runIngest is ingest-sharded, the write path under the default
// background-repack policy. Set-up builds a 4-shard sites relation
// seeded with about 50k uniform points and PACKs it. Two writer
// clients then loop Database.Write transactions inserting small
// batches of skewed points, about 10% of them also deleting the
// client's own earlier tuples. Then one client queries the same skew
// without waiting for repacks, paying for the L0, delta and tombstones
// the writers left. Queries never overlap writes: PSQL reads race with
// Picture.AddPoint, which the writers call.
func runIngest(r *run) error {
	const pool = 1024
	const batch = 8
	nSeed := r.n(50_000, 1000)
	nZones := r.n(300, 20)
	zones := genZones(r.rng(2), nZones, 5, 40)
	b, err := r.setup(dbSpec{
		pool:   pool,
		shards: 4,
		sites:  func() []site { return genSites(r.rng(3), workload.UniformPoints(nSeed, r.seed)) },
		zones:  zones,
		batch:  500,
	})
	if err != nil {
		return err
	}
	skew, err := workload.ParseSkew(ingestSkew)
	if err != nil {
		return err
	}
	writers := min(2, runtime.NumCPU())
	// Each writer cycles through its own pool of skewed points.
	perWriter := r.n(150_000, 2000)
	pts := skew.Points(perWriter*writers, r.seed+5)
	m := queryMix(r.rng(4), nSeed, zones, skew.Points(mixCentres, r.seed+6), 0.05, 0.04)

	db, main, err := r.openTimed(b.path, pool)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			db.Close()
		}
	}()
	sites, _ := db.Relation(sitesRel)
	pic, _ := db.Picture(siteMap)
	r.env["skew"] = ingestSkew
	r.env["seed_sites"], r.env["zones"], r.env["shards"] = nSeed, nZones, 4
	r.sizeEnv(b.path, pool, 5) // 4 shard files and the main file

	// Write phase. Each writer keeps, across episodes, its place in its
	// share of the skewed points and the ids of its live tuples.
	var seq atomic.Int64
	seq.Store(int64(nSeed))
	var inserted, deleted atomic.Int64
	// halted is set by the first failed Write: its mutations are not
	// rolled back, so no writer writes again.
	var halted atomic.Bool
	type writer struct {
		next int
		own  []storage.TupleID
	}
	ws := make([]writer, writers)
	// writePhase runs the writers until they have written quota tuples,
	// d has passed or a Write has failed. The quota, not the clock, sets how much each
	// episode adds, so the state the queries then see does not depend on
	// how fast this machine happened to be.
	writePhase := func(d time.Duration, quota int64, label int64) (*latencies, time.Duration) {
		per := make([]latencies, writers)
		var written atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(d)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := r.rng(label + int64(w))
				mine := pts[w*perWriter : (w+1)*perWriter]
				st := &ws[w]
				for !halted.Load() && written.Load() < quota && time.Now().Before(deadline) {
					var del []storage.TupleID
					if rng.Intn(10) == 0 && len(st.own) > 0 {
						for k := 0; k < batch && len(st.own) > 0; k++ {
							i := rng.Intn(len(st.own))
							del = append(del, st.own[i])
							st.own[i] = st.own[len(st.own)-1]
							st.own = st.own[:len(st.own)-1]
						}
					}
					var ids []storage.TupleID
					err := r.write(db, &per[w], func(tx *txn) error {
						for k := 0; k < batch; k++ {
							p := mine[st.next%len(mine)]
							st.next++
							oid := pic.AddPoint("", p)
							id, err := tx.insert(pictdb.Tuple{pictdb.I(seq.Add(1)), pictdb.I(int64(rng.Intn(kinds))), pictdb.L(siteMap, oid)})
							if err != nil {
								return err
							}
							ids = append(ids, id)
						}
						for _, id := range del {
							if err := tx.delete(id); err != nil {
								return err
							}
						}
						return nil
					})
					if !r.op(err) {
						halted.Store(true)
						return
					}
					st.own = append(st.own, ids...)
					inserted.Add(int64(len(ids)))
					deleted.Add(int64(len(del)))
					per[w].tuples += int64(len(ids) + len(del))
					written.Add(int64(len(ids) + len(del)))
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		var all latencies
		for w := range per {
			all.merge(&per[w])
		}
		return &all, elapsed
	}

	// The measured time is a series of episodes: a write phase of a
	// fixed number of tuples, then a query phase that starts as soon as
	// the writers stop and runs to the end of the episode. Pooling the
	// episodes averages over where each write phase happens to leave the
	// LSM tiers and the background repacks.
	pagers := allPagers(main, sites)
	queries := append(append(append([]*query{}, m.search...), m.nested...), m.join...)
	eps := r.episodes(2.5)
	stopWAL := func() int64 { return 0 }
	if r.traced {
		stopWAL = watchWAL(pagers)
	}
	defer stopWAL()
	u0 := r.userBytes.Load()
	_, _, repacks0 := lsmState(db)
	var writes writeEpisodes
	var twrites, reads latencies
	var wel, twel, qel time.Duration
	var wctr, qctr counters
	var deltas, tombs []float64
	for i, ep := range eps {
		c0 := readCounters(db, pagers)
		end := time.Now().Add(ep.d)
		quota := int64(quotaRate * ep.d.Seconds())
		wl, e := writePhase(time.Duration(float64(ep.d)*maxWriteShare), quota, int64(200+10*i))
		wctr = wctr.add(readCounters(db, pagers).sub(c0))
		if ep.traced {
			twrites.merge(wl)
			twel += e
		} else {
			writes.add(wl, e)
			wel += e
		}

		// Row counts may change between episodes, not within one.
		for _, q := range queries {
			q.rows.Store(-1)
		}
		delta, tomb, _ := lsmState(db)
		q0 := readCounters(db, pagers)
		ql, qe := r.readPhase(1, time.Until(end), nil, m, int64(400+10*i), r.liveExec(db), true, ep.traced, db)
		if !ep.traced {
			qctr = qctr.add(readCounters(db, pagers).sub(q0))
			reads.merge(ql)
			qel += qe
			deltas, tombs = append(deltas, float64(delta)), append(tombs, float64(tomb))
		}
	}
	r.env["episodes"] = len(eps)
	r.env["samples"] = reads.counts()
	if r.traced {
		r.overhead(float64(writes.samples)/wel.Seconds(), float64(twrites.count(opWrite))/twel.Seconds())
		r.writeLayerCounters(wctr, r.userBytes.Load()-u0, stopWAL())
		r.readLayerCounters(qctr, int64(reads.reads()))
		_, imbalance := sites.ShardBalance()
		r.set("relation.shard_imbalance", imbalance)
		_, _, repacks := lsmState(db)
		r.set("relation.repacks", float64(repacks-repacks0))
		r.set("relation.delta_items", median(deltas))
		r.set("relation.tombstones", median(tombs))
		r.setFanout()
	} else {
		r.setWriteMetrics(&writes)
		r.setReadMetrics(&reads, qel)
	}
	want := nSeed + int(inserted.Load()-deleted.Load())
	if err := r.endOfRun(db, b.path, want+nZones, b, m, pts, zones); err != nil {
		return err
	}

	// Oracles, outside the timed phases.
	for _, q := range queries {
		if q.mismatch.Load() {
			r.check("%s: repeated executions returned different row counts", q.text)
		}
	}
	r.checkNaive(db, naiveSample(m))
	if got := sites.Len(); got != want {
		r.check("sites holds %d tuples, want seed %d + inserted %d - deleted %d = %d", got, nSeed, inserted.Load(), deleted.Load(), want)
	}
	// Persist the pictures' new objects, close, reopen and verify.
	if err := db.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	closed = true
	if err := db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	rdb, err := pictdb.Open(b.path, pool)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer rdb.Close()
	if rep := rdb.Check(); !rep.OK() {
		r.check("check after reopen: %v", rep.Err())
	}
	rsites, _ := rdb.Relation(sitesRel)
	if got := rsites.Len(); got != want {
		r.check("after reopen sites holds %d tuples, want %d", got, want)
	}
	r.checkNaive(rdb, naiveSample(m)[:1])
	return nil
}
