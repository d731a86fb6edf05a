package main

import (
	"math/rand"
	"runtime"

	"repro/internal/geom"
	"repro/internal/workload"
)

// runStatic is paper-static, the paper's own setting: a database built
// and PACKed once, then only queried. About 200k uniform sites (PackNN,
// B-tree on kind) and a few hundred zones are loaded, checkpointed,
// closed and reopened over a buffer pool several times smaller than
// the data; then two closed-loop clients issue a seeded mix of
// single-window searches, nested mappings and sites x zones
// juxtapositions. Its write metrics time the set-up's load.
func runStatic(r *run) error {
	const pool = 256 // pages: 1 MiB against tens of MiB of data
	nSites := r.n(200_000, 2000)
	nZones := r.n(300, 20)
	zones := genZones(r.rng(2), nZones, 5, 40)
	b, err := r.setup(dbSpec{
		pool:  pool,
		sites: func() []site { return genSites(r.rng(3), workload.UniformPoints(nSites, r.seed)) },
		zones: zones,
		batch: 200,
	})
	if err != nil {
		return err
	}
	r.setWriteMetrics(&b.loads)

	m := queryMix(r.rng(4), nSites, zones, workload.UniformPoints(mixCentres, r.seed+4), 0.10, 0.01)

	db, main, err := r.openTimed(b.path, pool)
	if err != nil {
		return err
	}
	defer db.Close()
	sites, _ := db.Relation(sitesRel)
	r.sizeEnv(b.path, pool, 1)
	r.env["sites"], r.env["zones"] = nSites, nZones

	clients := min(2, runtime.NumCPU())
	du, dt := r.phaseSeconds()
	pagers := allPagers(main, sites)
	delta, tombs, repacks := lsmState(db)
	c0 := readCounters(db, pagers)
	lat, el := r.readPhase(clients, du, nil, m, 100, r.liveExec(db), true, false, nil)
	c1 := readCounters(db, pagers)
	r.env["samples"] = lat.counts()
	if r.traced {
		r.readLayerCounters(c1.sub(c0), int64(lat.reads()))
		r.writeLayerCounters(b.walB.sub(b.walA), b.userBytes, b.walPeak)
		r.set("relation.repacks", float64(repacks))
		r.set("relation.delta_items", float64(delta))
		r.set("relation.tombstones", float64(tombs))
		tl, tel := r.readPhase(clients, dt, nil, m, 100, r.liveExec(db), true, true, db)
		r.overhead(float64(lat.reads())/el.Seconds(), float64(tl.reads())/tel.Seconds())
		r.setFanout()
	} else {
		r.setReadMetrics(lat, el)
	}
	if err := r.endOfRun(db, b.path, nSites+nZones, b, m, zones); err != nil {
		return err
	}

	// Oracles, outside the timed phases.
	checked := r.checkCounts(m.search, b.sites, zones, 200) +
		r.checkCounts(m.nested, b.sites, zones, 50) +
		r.checkCounts(m.join, b.sites, zones, 20)
	r.checkNaive(db, naiveSample(m))
	r.env["checked_counts"] = checked
	if checked == 0 {
		r.check("no query ran, nothing was checked")
	}
	return nil
}

// queryMix generates a workload's query pool: mixCentres single-window
// searches centred on successive centres, 1024 nested mappings over
// random zones and 64 juxtapositions. The sites' mean density sizes
// the windows; rows per search are log-uniform up to 2000 or a tenth
// of the sites.
func queryMix(rng *rand.Rand, nSites int, zones []zone, centres []geom.Point, nestedShare, joinShare float64) *mix {
	m := &mix{nestedShare: nestedShare, joinShare: joinShare}
	density := float64(nSites) / (frame * frame)
	maxRows := min(2000, float64(nSites)/10)
	for i := 0; i < mixCentres; i++ {
		m.search = append(m.search, searchQuery(rng, centres[i], density, maxRows))
	}
	for i := 0; i < 1024; i++ {
		m.nested = append(m.nested, nestedQuery(rng, zones[rng.Intn(len(zones))]))
	}
	for i := 0; i < 64; i++ {
		m.join = append(m.join, joinQuery(rng, len(zones)))
	}
	return m
}

// mixCentres is the number of window centres queryMix consumes: a pool
// large enough that its latency distribution barely varies by seed.
const mixCentres = 8192

// naiveSample picks the queries checked row-for-row against
// QueryNaive: four searches, one nested mapping and one juxtaposition.
func naiveSample(m *mix) []*query {
	var out []*query
	out = append(out, m.search[:min(4, len(m.search))]...)
	if len(m.nested) > 0 {
		out = append(out, m.nested[0])
	}
	if len(m.join) > 0 {
		out = append(out, m.join[0])
	}
	return out
}
