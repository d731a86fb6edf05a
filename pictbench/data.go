package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	pictdb "repro"
	"repro/internal/geom"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Every workload's database has the same shape: a sites relation of
// points with a B-tree on kind, and a zones relation of a few hundred
// rectangular regions, each on its own picture.
const (
	sitesRel = "sites"
	zonesRel = "zones"
	siteMap  = "site-map"
	zoneMap  = "zone-map"
	kinds    = 16
	frame    = 1000.0 // pictures cover [0, frame]²
)

var (
	sitesSchema = pictdb.MustSchema("seq:int", "kind:int", "loc:loc")
	zonesSchema = pictdb.MustSchema("zone:int", "loc:loc")
)

type site struct {
	P    geom.Point
	Kind int64
}

type zone struct {
	R  geom.Rect
	ID int64
}

func genSites(rng *rand.Rand, pts []geom.Point) []site {
	out := make([]site, len(pts))
	for i, p := range pts {
		out[i] = site{P: p, Kind: int64(rng.Intn(kinds))}
	}
	return out
}

// genZones draws n axis-aligned rectangles with sides uniform in
// [minSide, maxSide], inside the frame.
func genZones(rng *rand.Rand, n int, minSide, maxSide float64) []zone {
	out := make([]zone, n)
	for i := range out {
		w := minSide + rng.Float64()*(maxSide-minSide)
		h := minSide + rng.Float64()*(maxSide-minSide)
		x, y := rng.Float64()*(frame-w), rng.Float64()*(frame-h)
		out[i] = zone{R: geom.R(x, y, x+w, y+h), ID: int64(i)}
	}
	return out
}

// --- queries -------------------------------------------------------------

// query is one generated PSQL mapping. rows records the row count the
// first execution returned (-1 before), and mismatch any later
// execution of a static database that disagreed with it.
type query struct {
	class opClass
	text  string
	win   geom.Rect // search window, or the nested mapping's zones window
	kind  int64     // where kind = ..., or -1
	zone  int64     // join filter zone
	rows  atomic.Int64
	// mismatch is set when a repeat of the query returned another count.
	mismatch atomic.Bool
}

func newQuery(class opClass, text string) *query {
	q := &query{class: class, text: text, kind: -1}
	q.rows.Store(-1)
	return q
}

// observe records a static query's row count.
func (q *query) observe(rows int) {
	if !q.rows.CompareAndSwap(-1, int64(rows)) && q.rows.Load() != int64(rows) {
		q.mismatch.Store(true)
	}
}

// fmtCoord prints a coordinate with three decimals. windowLiteral
// parses the printed numbers back, so the oracles use exactly the
// rectangle the engine parses.
func fmtCoord(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

func windowLiteral(cx, dx, cy, dy float64) (string, geom.Rect) {
	s := [4]string{fmtCoord(cx), fmtCoord(dx), fmtCoord(cy), fmtCoord(dy)}
	var v [4]float64
	for i := range s {
		v[i], _ = strconv.ParseFloat(s[i], 64)
	}
	return fmt.Sprintf("{%s±%s, %s±%s}", s[0], s[1], s[2], s[3]), geom.WindowAt(v[0], v[1], v[2], v[3])
}

// searchQuery draws a single-window mapping centred at c whose window
// holds about rows sites at the given density (sites per unit area),
// with rows log-uniform in [1, maxRows]. A quarter carry a kind
// conjunct.
func searchQuery(rng *rand.Rand, c geom.Point, density, maxRows float64) *query {
	rows := math.Exp(rng.Float64() * math.Log(maxRows))
	side := math.Sqrt(rows / density)
	aspect := math.Exp((rng.Float64()*2 - 1) * math.Ln2) // 1/2 .. 2
	lit, win := windowLiteral(c.X, side*math.Sqrt(aspect)/2, c.Y, side/math.Sqrt(aspect)/2)
	text := fmt.Sprintf("select seq from %s on %s at loc covered-by %s", sitesRel, siteMap, lit)
	kind := int64(-1)
	if rng.Intn(4) == 0 {
		kind = int64(rng.Intn(kinds))
		text += fmt.Sprintf(" where kind = %d", kind)
	}
	q := newQuery(opSearch, text)
	q.win, q.kind = win, kind
	return q
}

// nestedQuery draws a nested mapping: the zones overlapping a window
// feed a direct search of sites. The window is centred in zone z, so
// the inner mapping always yields at least one location.
func nestedQuery(rng *rand.Rand, z zone) *query {
	half := (z.R.Width() + z.R.Height()) / 4 * (0.25 + rng.Float64()*0.5)
	c := z.R.Center()
	lit, win := windowLiteral(c.X, half, c.Y, half)
	q := newQuery(opNested, fmt.Sprintf(
		"select seq from %s on %s at %s.loc covered-by select %s.loc from %s on %s at %s.loc overlapping %s",
		sitesRel, siteMap, sitesRel, zonesRel, zonesRel, zoneMap, zonesRel, lit))
	q.win = win
	return q
}

// joinQuery draws a sites x zones juxtaposition filtered to one zone.
func joinQuery(rng *rand.Rand, zones int) *query {
	z := int64(rng.Intn(zones))
	q := newQuery(opJoin, fmt.Sprintf(
		"select %s.seq, %s.zone from %s, %s on %s, %s at %s.loc covered-by %s.loc where %s.zone = %d",
		sitesRel, zonesRel, sitesRel, zonesRel, siteMap, zoneMap, sitesRel, zonesRel, zonesRel, z))
	q.zone = z
	return q
}

// mix is a pool of generated queries and the share of each class.
type mix struct {
	search, nested, join []*query
	nestedShare          float64
	joinShare            float64
}

// deckSize is the length of a client's shuffled class deck.
const deckSize = 200

// dealer returns one client's query stream. Classes come from a deck of
// deckSize cards holding each class in its exact share, reshuffled
// whenever it runs out, so a run's mix does not drift with the draw of
// its rare, expensive classes. Queries within a class are drawn
// uniformly from the pool.
func (m *mix) dealer(rng *rand.Rand) func() *query {
	nj := int(math.Round(m.joinShare * deckSize))
	nn := int(math.Round(m.nestedShare * deckSize))
	deck := make([]opClass, deckSize)
	for i := range deck {
		switch {
		case i < nj:
			deck[i] = opJoin
		case i < nj+nn:
			deck[i] = opNested
		default:
			deck[i] = opSearch
		}
	}
	next := deckSize
	return func() *query {
		if next == deckSize {
			rng.Shuffle(deckSize, func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
			next = 0
		}
		c := deck[next]
		next++
		switch c {
		case opJoin:
			return m.join[rng.Intn(len(m.join))]
		case opNested:
			return m.nested[rng.Intn(len(m.nested))]
		}
		return m.search[rng.Intn(len(m.search))]
	}
}

// --- building a database ----------------------------------------------------

// dbSpec describes the database a workload's set-up builds.
type dbSpec struct {
	pool   int
	shards int // 0: unsharded sites
	sites  func() []site
	// spare are picture objects with no tuple yet: writers of the
	// snapshot workload insert tuples referencing them, so the catalog
	// a snapshot loads already holds every object.
	spare func() []geom.Point
	zones []zone
	batch int
}

// built is what a set-up leaves for the workload.
type built struct {
	path  string
	sites []site
	ids   []storage.TupleID // sites' tuple ids, by seq-1
	spare []pictdb.ObjectID
	load  latencies // the load's Write calls
	loadT time.Duration
	// loads holds every set-up's load, the write metrics of a workload
	// that writes only while setting up.
	loads writeEpisodes
	// Traced runs: counters around the last set-up's load, the encoded
	// tuple bytes it wrote and the largest WAL size seen.
	walA, walB counters
	userBytes  int64
	walPeak    int64
}

// setup builds the database r.setups times, each in a fresh directory,
// and keeps the last. setup_s is the median build time: generating the
// inputs, loading them through Database.Write, creating the B-tree,
// PACKing the R-trees, checkpointing and closing.
func (r *run) setup(spec dbSpec) (*built, error) {
	var times []float64
	var loads writeEpisodes
	var b *built
	for i := 0; i < r.setups; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC() // start each set-up from the same heap
		t0 := time.Now()
		nb, err := r.build(spec, filepath.Join(dir, "pict.db"))
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, time.Since(t0).Seconds())
		loads.add(&nb.load, nb.loadT)
		if b != nil {
			if err := os.RemoveAll(filepath.Dir(b.path)); err != nil {
				return nil, err
			}
		}
		b = nb
	}
	r.set("setup_s", median(times))
	b.loads = loads
	return b, nil
}

func (r *run) build(spec dbSpec, path string) (*built, error) {
	b := &built{path: path, sites: spec.sites()}
	db, main, err := r.openDB(path, spec.pool, false)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*built, error) {
		db.Close()
		return nil, err
	}
	sitePic, err := db.CreatePicture(siteMap, geom.R(0, 0, frame, frame))
	if err != nil {
		return fail(err)
	}
	zonePic, err := db.CreatePicture(zoneMap, geom.R(0, 0, frame, frame))
	if err != nil {
		return fail(err)
	}
	var sites *pictdb.Relation
	if spec.shards > 0 {
		sites, err = db.CreateShardedRelation(sitesRel, sitesSchema, spec.shards)
	} else {
		sites, err = db.CreateRelation(sitesRel, sitesSchema)
	}
	if err != nil {
		return fail(err)
	}
	zones, err := db.CreateRelation(zonesRel, zonesSchema)
	if err != nil {
		return fail(err)
	}
	if spec.spare != nil {
		for _, p := range spec.spare() {
			b.spare = append(b.spare, sitePic.AddPoint("", p))
		}
	}
	for _, z := range spec.zones {
		oid := zonePic.AddRegion("", geom.Poly(z.R.Min, geom.Pt(z.R.Max.X, z.R.Min.Y), z.R.Max, geom.Pt(z.R.Min.X, z.R.Max.Y)))
		if _, err := zones.Insert(pictdb.Tuple{pictdb.I(z.ID), pictdb.L(zoneMap, oid)}); err != nil {
			return fail(err)
		}
	}

	// Load the sites in Write transactions of spec.batch tuples. A
	// traced run prices the WAL over the load.
	pagers := allPagers(main, sites)
	stopWAL := func() int64 { return 0 }
	if r.traced {
		b.walA, b.userBytes = readCounters(db, pagers), r.userBytes.Load()
		stopWAL = watchWAL(pagers)
	}
	defer stopWAL()
	b.ids = make([]storage.TupleID, len(b.sites))
	loadStart := time.Now()
	for lo := 0; lo < len(b.sites); lo += spec.batch {
		hi := min(lo+spec.batch, len(b.sites))
		err := r.write(db, &b.load, func(tx *txn) error {
			for i := lo; i < hi; i++ {
				s := b.sites[i]
				oid := sitePic.AddPoint("", s.P)
				id, err := tx.insert(pictdb.Tuple{pictdb.I(int64(i + 1)), pictdb.I(s.Kind), pictdb.L(siteMap, oid)})
				if err != nil {
					return err
				}
				b.ids[i] = id
			}
			return nil
		})
		if !r.op(err) {
			return fail(fmt.Errorf("load: %w", err))
		}
		b.load.tuples += int64(hi - lo)
	}
	b.loadT = time.Since(loadStart)
	if r.traced {
		b.walPeak = stopWAL()
		b.walB, b.userBytes = readCounters(db, pagers), r.userBytes.Load()-b.userBytes
	}

	if err := sites.CreateIndex("kind"); err != nil {
		return fail(err)
	}
	t0 := time.Now()
	if err := sites.AttachPicture(sitePic, pictdb.PackOptions{Method: pictdb.PackNN}); err != nil {
		return fail(err)
	}
	if r.traced {
		r.tracer.record("pack.attach", r.tracer.newOp(), 0, t0, time.Now(), 0, 0)
	}
	if err := zones.AttachPicture(zonePic, pictdb.PackOptions{Method: pictdb.PackNN}); err != nil {
		return fail(err)
	}
	if err := db.Checkpoint(); err != nil {
		return fail(err)
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	return b, nil
}

// txn is the body of one Database.Write transaction on sites. A
// traced run times every traceSample-th insert, and every
// traceSample-th delete, of a transaction (the first of each included)
// as a relation.insert or relation.delete span.
type txn struct {
	r         *run
	rel       *pictdb.Relation
	op        int64
	ins, dels int
}

// traceSample keeps bulk loads and delete-heavy transactions from
// flooding the trace.
const traceSample = 16

// timed counts one write in n and reports whether it is traced.
func (t *txn) timed(n *int) bool {
	*n++
	return t.r.traced && *n%traceSample == 1
}

func (t *txn) insert(tu pictdb.Tuple) (storage.TupleID, error) {
	if t.r.traced {
		t.r.userBytes.Add(int64(len(relation.EncodeTuple(tu))))
	}
	if !t.timed(&t.ins) {
		return t.rel.Insert(tu)
	}
	t0 := time.Now()
	id, err := t.rel.Insert(tu)
	t.r.tracer.record("relation.insert", t.op, 0, t0, time.Now(), 1, 0)
	return id, err
}

func (t *txn) delete(id storage.TupleID) error {
	if !t.timed(&t.dels) {
		return t.rel.Delete(id)
	}
	t0 := time.Now()
	err := t.rel.Delete(id)
	t.r.tracer.record("relation.delete", t.op, 0, t0, time.Now(), 1, 0)
	return err
}

// write runs fn as one Database.Write transaction and records its
// latency, call to ack, in l. A traced run also splits the transaction
// into pictdb.write_apply (the body of fn) and pictdb.write_commit
// (from the end of fn to the ack).
func (r *run) write(db *pictdb.Database, l *latencies, fn func(tx *txn) error) error {
	rel, _ := db.Relation(sitesRel)
	tx := &txn{r: r, rel: rel, op: r.tracer.newOp()}
	var a0, a1 time.Time
	t0 := time.Now()
	err := db.Write(func() error {
		a0 = time.Now()
		err := fn(tx)
		a1 = time.Now()
		return err
	})
	end := time.Now()
	l.add(opWrite, end.Sub(t0))
	if r.traced && err == nil {
		r.tracer.record("pictdb.write_apply", tx.op, 0, a0, a1, 0, 0)
		r.tracer.record("pictdb.write_commit", tx.op, 0, a1, end, 0, 0)
	}
	return err
}
