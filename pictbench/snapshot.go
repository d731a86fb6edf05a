package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	pictdb "repro"
	"repro/internal/geom"
	"repro/internal/storage"
	"repro/internal/workload"
)

// snapQuotaRate sets how many tuples (inserted plus deleted) a
// snapshot-mixed episode writes: this rate times the episode's nominal
// length. A 2-core VM writes 25k to 28k tuples/s beside the reader,
// so it meets the quota in about two fifths of the episode.
const snapQuotaRate = 10_000

// runSnapshot is snapshot-mixed: reads alongside writes, the only way
// the engine documents today. Set-up seeds an unsharded database with
// about 20k points. Then one writer loops Write transactions of uniform
// inserts and deletes of the oldest tuples, each tuple stamped with a
// sequence number, while
// one reader loops SnapshotQuery over single-window searches, nested
// mappings and juxtapositions. The data fits the buffer pool.
func runSnapshot(r *run) error {
	const pool = 4096 // pages: 16 MiB, larger than the data
	const perTxn = 16 // inserts, and as many deletes, per transaction
	nSeed := r.n(20_000, 1000)
	nZones := r.n(100, 10)
	zones := genZones(r.rng(2), nZones, 5, 40)
	// The writer's inserts reference spare picture objects created at
	// set-up, so every object a snapshot's catalog needs is already
	// checkpointed and the live picture is never written during the run.
	spare := func() []geom.Point { return workload.UniformPoints(nSeed/10, r.seed+5) }
	b, err := r.setup(dbSpec{
		pool:  pool,
		sites: func() []site { return genSites(r.rng(3), workload.UniformPoints(nSeed, r.seed)) },
		spare: spare,
		zones: zones,
		batch: 500,
	})
	if err != nil {
		return err
	}
	sparePts := spare()
	m := queryMix(r.rng(4), nSeed, zones, workload.UniformPoints(mixCentres, r.seed+4), 0.20, 0.20)
	// state is the writer's record folded up to the current episode.
	state := make(map[int64]liveTuple, nSeed)
	live := make([]liveTuple, 0, nSeed)
	for i, s := range b.sites {
		t := liveTuple{seq: int64(i + 1), kind: s.Kind, id: b.ids[i], p: s.P}
		live = append(live, t)
		state[t.seq] = t
	}

	db, main, err := r.openTimed(b.path, pool)
	if err != nil {
		return err
	}
	defer db.Close()
	sites, _ := db.Relation(sitesRel)
	r.env["seed_sites"], r.env["spare_objects"], r.env["zones"] = nSeed, len(sparePts), nZones
	r.sizeEnv(b.path, pool, 1)

	w := &snapWriter{r: r, db: db, spare: b.spare, sparePts: sparePts, perTxn: perTxn, nextSeq: int64(nSeed), live: live}

	var smu sync.Mutex
	var samples []snapSample
	exec := func(q *query, op int64) (*pictdb.Result, error) {
		lo := w.acked.Load()
		res, err := r.snapshotQuery(db, q, op)
		if err == nil && q.class == opSearch {
			smu.Lock()
			samples = append(samples, snapSample{q: q, lo: lo, hi: w.started.Load(), res: res})
			smu.Unlock()
		}
		return res, err
	}

	// The measured phase is a series of episodes. Each starts from a
	// checkpointed WAL, runs the writer until it has written its quota
	// beside a reader that runs to the episode's nominal end or until
	// the writer stops, whichever is later, and is then checked and
	// folded into state, outside the timing. Without the reset, how far
	// the WAL grows depends on whether a commit happened to land between
	// two pinned snapshots. The quota, not the clock, sets how much each
	// episode writes, so the run's heap and file sizes do not depend on
	// how fast this machine happened to be. An episode is cut at twice
	// its nominal length, which only a writer slower than half of
	// snapQuotaRate reaches.
	pagers := allPagers(main, sites)
	eps := r.episodes(2.5)
	_, _, repacks0 := lsmState(db)
	u0 := r.userBytes.Load()
	var reads, treads latencies
	var writes writeEpisodes
	var el, tel time.Duration
	var all, untraced counters
	var peak int64
	checked := 0
	for i, ep := range eps {
		if err := db.CheckpointWAL(); err != nil {
			return fmt.Errorf("checkpoint WAL: %w", err)
		}
		w.log, samples = nil, nil
		w.started.Store(0)
		w.acked.Store(0)
		stopWAL := func() int64 { return 0 }
		if r.traced {
			stopWAL = watchWAL(pagers)
		}
		c0 := readCounters(db, pagers)
		var wl latencies
		var we time.Duration
		nominal := time.Now().Add(ep.d)
		done := make(chan struct{})
		go func() {
			defer close(done)
			we = w.run(int64(snapQuotaRate*ep.d.Seconds()), 2*ep.d, int64(500+10*i), &wl)
			time.Sleep(time.Until(nominal))
		}()
		rl, e := r.readPhase(1, 2*ep.d, done, m, int64(501+10*i), exec, false, ep.traced, nil)
		<-done
		delta := readCounters(db, pagers).sub(c0)
		peak = max(peak, stopWAL())
		all = all.add(delta)
		if ep.traced {
			treads.merge(rl)
			tel += e
		} else {
			untraced = untraced.add(delta)
			reads.merge(rl)
			writes.add(&wl, we)
			el += e
		}
		checked += len(samples)
		r.checkPrefixes(state, w.log, samples)
	}
	w.log, samples = nil, nil // drop the last episode's record before heap_mib
	r.env["episodes"] = len(eps)
	r.env["samples"] = reads.counts()
	if r.traced {
		r.readLayerCounters(untraced, int64(reads.reads()))
		r.overhead(float64(reads.reads())/el.Seconds(), float64(treads.reads())/tel.Seconds())
		r.writeLayerCounters(all, r.userBytes.Load()-u0, peak)
		r.setFanout()
	} else {
		r.setReadMetrics(&reads, el)
		r.setWriteMetrics(&writes)
	}
	delta, tombs, repacks := lsmState(db)
	r.set("relation.repacks", float64(repacks-repacks0))
	r.set("relation.delta_items", float64(delta))
	r.set("relation.tombstones", float64(tombs))
	if err := r.endOfRun(db, b.path, len(w.live)+nZones, b, m, state, w); err != nil {
		return err
	}

	// Final oracles on the quiesced database.
	r.env["checked_snapshots"] = checked
	if checked == 0 {
		r.check("no snapshot search completed, nothing was checked")
	}
	r.checkNaive(db, naiveSample(m))
	if got := sites.Len(); got != len(w.live) {
		r.check("sites holds %d tuples, the writer's record %d", got, len(w.live))
	}
	return nil
}

// snapshotQuery runs q on a fresh snapshot. Untraced it is
// Database.SnapshotQuery; traced (op != 0) it pins the snapshot itself
// (pictdb.snapshot_pin), replays q down the layer ladder on the pinned
// handle, and runs the query there (pictdb.snapshot_exec).
func (r *run) snapshotQuery(db *pictdb.Database, q *query, op int64) (*pictdb.Result, error) {
	if op == 0 {
		return db.SnapshotQuery(q.text)
	}
	t0 := time.Now()
	sdb, err := db.Snapshot()
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	defer sdb.Close()
	r.tracer.record("pictdb.snapshot_pin", op, 0, t0, t1, 0, 0)
	r.ladder(sdb, q, op)
	t2 := time.Now()
	res, err := sdb.Query(q.text)
	t3 := time.Now()
	if err == nil {
		parent := r.tracer.record("pictdb.snapshot_exec", op, 0, t2, t3, res.Len(), res.NodesVisited)
		r.tracer.record("psql.query", op, parent, t2, t3, res.Len(), res.NodesVisited)
	}
	return res, err
}

// liveTuple is one tuple of the writer's record.
type liveTuple struct {
	seq, kind int64
	id        storage.TupleID
	p         geom.Point
}

// change is one transaction of the writer's record: the tuples it
// inserts, the sequence numbers it deletes, and whether Write
// acknowledged it.
type change struct {
	ins   []liveTuple
	del   []int64
	acked bool
}

// snapWriter is snapshot-mixed's writer client. Only its goroutine
// touches live (oldest first), log and nextSeq while it runs.
type snapWriter struct {
	r        *run
	db       *pictdb.Database
	spare    []pictdb.ObjectID
	sparePts []geom.Point
	perTxn   int

	live    []liveTuple
	log     []change
	nextSeq int64
	// halted is set by the first failed Write: its mutations are not
	// rolled back, so the writer stops and log ends with it.
	halted bool
	// started counts transactions handed to Write, acked those
	// acknowledged; a snapshot taken between two readings sees a
	// committed prefix of log whose length lies between them. Every
	// entry of log but a halting one is acked, so acked is also the
	// length of log's acked prefix.
	started, acked atomic.Int64
}

// run loops Write transactions until they have written quota tuples
// (inserted plus deleted), d has passed or a Write has failed: each
// deletes the perTxn oldest live tuples and inserts perTxn new ones at
// random spare objects. Both are uniform over the picture; deleting by
// age keeps the relation's size constant and its heap compact.
func (w *snapWriter) run(quota int64, d time.Duration, label int64, l *latencies) time.Duration {
	rng := w.r.rng(label)
	start := time.Now()
	deadline := start.Add(d)
	for !w.halted && l.tuples < quota && time.Now().Before(deadline) {
		var c change
		var dels []storage.TupleID
		for _, t := range w.live[:min(w.perTxn, len(w.live))] {
			c.del = append(c.del, t.seq)
			dels = append(dels, t.id)
		}
		objs := make([]pictdb.ObjectID, w.perTxn)
		for k := range objs {
			j := rng.Intn(len(w.spare))
			w.nextSeq++
			objs[k] = w.spare[j]
			c.ins = append(c.ins, liveTuple{seq: w.nextSeq, kind: w.nextSeq % kinds, p: w.sparePts[j]})
		}
		w.log = append(w.log, c)
		li := len(w.log) - 1
		w.started.Add(1)
		err := w.r.write(w.db, l, func(tx *txn) error {
			for k := range c.ins {
				t := c.ins[k]
				id, err := tx.insert(pictdb.Tuple{pictdb.I(t.seq), pictdb.I(t.kind), pictdb.L(siteMap, objs[k])})
				if err != nil {
					return err
				}
				c.ins[k].id = id
			}
			for _, id := range dels {
				if err := tx.delete(id); err != nil {
					return err
				}
			}
			return nil
		})
		if !w.r.op(err) {
			w.halted = true
			break
		}
		w.log[li].acked = true
		w.acked.Add(1)
		w.live = append(w.live[len(dels):], c.ins...)
		l.tuples += int64(len(c.ins) + len(dels))
	}
	return time.Since(start)
}

// snapSample is one snapshot search result: it must equal the window's
// rows after some prefix of the writer's log whose length is in
// [lo, hi].
type snapSample struct {
	q      *query
	lo, hi int64
	res    *pictdb.Result
}

// checkPrefixes verifies every snapshot search sample of an episode
// against the writer's record: replaying the episode's log over state
// (the record folded up to the episode's start), some prefix length in
// [lo, hi] must give exactly the sample's rows. It then folds the
// episode's acknowledged transactions into state.
func (r *run) checkPrefixes(state map[int64]liveTuple, log []change, samples []snapSample) {
	cur := make(map[int64]liveTuple, len(state))
	for seq, t := range state {
		cur[seq] = t
	}
	applied := int64(0)
	for _, s := range samples {
		for ; applied < s.lo; applied++ {
			applyChange(cur, log[applied], nil)
		}
		q := s.q
		match := func(t liveTuple) bool { return covers(q.win, t.p) && (q.kind < 0 || t.kind == q.kind) }
		want := map[int64]liveTuple{}
		for seq, t := range cur {
			if match(t) {
				want[seq] = t
			}
		}
		got := make(map[int64]bool, len(s.res.Rows))
		for _, row := range s.res.Rows {
			got[row[0].Int] = true
		}
		ok := false
		for k := s.lo; len(got) == len(s.res.Rows); k++ {
			if sameSeqs(want, got) {
				ok = true
				break
			}
			if k >= s.hi {
				break
			}
			applyChange(want, log[k], match)
		}
		if !ok {
			r.check("%s: snapshot returned %d rows, matching no committed prefix of transactions %d..%d", q.text, len(s.res.Rows), s.lo, s.hi)
		}
	}
	for _, c := range log {
		if c.acked {
			applyChange(state, c, nil)
		}
	}
}

// applyChange applies one transaction of the writer's log to set,
// adding only inserted tuples keep accepts (all when keep is nil).
func applyChange(set map[int64]liveTuple, c change, keep func(liveTuple) bool) {
	for _, seq := range c.del {
		delete(set, seq)
	}
	for _, t := range c.ins {
		if keep == nil || keep(t) {
			set[t.seq] = t
		}
	}
}

func covers(win geom.Rect, p geom.Point) bool { return geom.CoveredBy(p.Rect(), win) }

func sameSeqs(want map[int64]liveTuple, got map[int64]bool) bool {
	if len(want) != len(got) {
		return false
	}
	for seq := range want {
		if !got[seq] {
			return false
		}
	}
	return true
}
