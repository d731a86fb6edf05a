package main

import (
	"fmt"

	pictdb "repro"
	"repro/internal/geom"
)

// sameResult reports how got differs from want, the naive reference
// executor's answer: columns, every row cell, and loc pointers, in
// order. nil means row-for-row identical.
func sameResult(got, want *pictdb.Result) error {
	if len(got.Columns) != len(want.Columns) {
		return fmt.Errorf("%d columns, naive %d", len(got.Columns), len(want.Columns))
	}
	for i := range got.Columns {
		if got.Columns[i] != want.Columns[i] {
			return fmt.Errorf("column %d is %q, naive %q", i, got.Columns[i], want.Columns[i])
		}
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, naive %d", len(got.Rows), len(want.Rows))
	}
	for ri := range got.Rows {
		if len(got.Rows[ri]) != len(want.Rows[ri]) {
			return fmt.Errorf("row %d has %d cells, naive %d", ri, len(got.Rows[ri]), len(want.Rows[ri]))
		}
		for ci := range got.Rows[ri] {
			if g, w := got.Rows[ri][ci].String(), want.Rows[ri][ci].String(); g != w {
				return fmt.Errorf("row %d column %d is %s, naive %s", ri, ci, g, w)
			}
		}
	}
	if len(got.Locs) != len(want.Locs) {
		return fmt.Errorf("%d locs, naive %d", len(got.Locs), len(want.Locs))
	}
	for i := range got.Locs {
		if got.Locs[i] != want.Locs[i] {
			return fmt.Errorf("loc %d is %v, naive %v", i, got.Locs[i], want.Locs[i])
		}
	}
	return nil
}

// checkNaive runs each query through the planned executor and the
// naive reference executor and records any difference.
func (r *run) checkNaive(db *pictdb.Database, qs []*query) {
	for _, q := range qs {
		got, err := db.Query(q.text)
		if err != nil {
			r.check("%s: %v", q.text, err)
			continue
		}
		want, err := db.QueryNaive(q.text)
		if err != nil {
			r.check("%s: naive: %v", q.text, err)
			continue
		}
		if err := sameResult(got, want); err != nil {
			r.check("%s: %v", q.text, err)
		}
	}
}

// bruteCount counts, by scanning the generated sites, the rows q must
// return from a database holding exactly sites and zones.
func bruteCount(q *query, sites []site, zones []zone) int {
	covered := func(p geom.Point, w geom.Rect) bool { return geom.CoveredBy(geom.R(p.X, p.Y, p.X, p.Y), w) }
	n := 0
	switch q.class {
	case opSearch:
		for _, s := range sites {
			if covered(s.P, q.win) && (q.kind < 0 || s.Kind == q.kind) {
				n++
			}
		}
	case opNested:
		var ws []geom.Rect
		for _, z := range zones {
			if geom.Overlapping(z.R, q.win) {
				ws = append(ws, z.R)
			}
		}
		for _, s := range sites {
			for _, w := range ws {
				if covered(s.P, w) {
					n++
					break
				}
			}
		}
	case opJoin:
		for _, s := range sites {
			if covered(s.P, zones[q.zone].R) {
				n++
			}
		}
	}
	return n
}

// checkCounts compares the row counts the clients observed for a
// static database against brute-force counts over the generated
// inputs. It checks at most limit executed queries of each class.
func (r *run) checkCounts(qs []*query, sites []site, zones []zone, limit int) int {
	checked := 0
	for _, q := range qs {
		got := q.rows.Load()
		if got < 0 {
			continue
		}
		if checked >= limit {
			break
		}
		checked++
		if q.mismatch.Load() {
			r.check("%s: repeated executions returned different row counts", q.text)
		}
		if want := bruteCount(q, sites, zones); int64(want) != got {
			r.check("%s: %d rows, brute force %d", q.text, got, want)
		}
	}
	return checked
}
