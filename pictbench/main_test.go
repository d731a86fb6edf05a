package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	pictdb "repro"
	"repro/internal/geom"
	"repro/internal/psql"
)

// lastLines splits a run's standard output into the environment block
// and the result line.
func lastLines(t *testing.T, out string) (map[string]any, result) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		t.Fatalf("want an environment line and a result line, got %q", out)
	}
	var env map[string]map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &env); err != nil {
		t.Fatalf("environment line: %v", err)
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return env["environment"], res
}

// TestTinyRuns runs every workload at a tiny size, untraced and traced,
// and requires a passing result carrying every named metric with its
// unit. A traced run must name exactly the workload's not-applicable
// metrics.
func TestTinyRuns(t *testing.T) {
	for name, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				dir := t.TempDir()
				var out, errb bytes.Buffer
				code := benchMain([]string{
					"--workload", name, "--seed", "3", "--seconds", "0.6", "--trace", trace,
					"--scale", "0.01", "--work", dir, "--traces", dir,
				}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
				}
				env, res := lastLines(t, out.String())
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d; stderr: %s", res.Correct, res.Attempted, res.Failed, errb.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
						continue
					}
					if m.Unit != d.Unit {
						t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				for _, k := range []string{"nproc", "gomaxprocs", "go_version", "git_commit", "seed", "flush_policy"} {
					if _, ok := env[k]; !ok {
						t.Errorf("environment block lacks %s", k)
					}
				}
				if trace == "1" {
					want := append([]string(nil), wl.notApplicable...)
					sort.Strings(want)
					got := fmt.Sprint(env["not_applicable"])
					if got != fmt.Sprint(want) {
						t.Errorf("not_applicable %s, want %v", got, want)
					}
				}
			})
		}
	}
}

// TestUsageErrors requires a non-zero exit and no result line for bad
// arguments.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-static", "--trace", "2"},
		{"--workload", "paper-static", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := benchMain(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables here in
// step: same workloads, same metric names and units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// smallDB builds an in-memory database of nine sites on a 3x3 grid and
// one zone, returning the generated inputs the oracles compare with.
func smallDB(t *testing.T) (*pictdb.Database, []site, []zone) {
	t.Helper()
	db := pictdb.New()
	sitePic, _ := db.CreatePicture(siteMap, geom.R(0, 0, frame, frame))
	zonePic, _ := db.CreatePicture(zoneMap, geom.R(0, 0, frame, frame))
	sites, err := db.CreateRelation(sitesRel, sitesSchema)
	if err != nil {
		t.Fatal(err)
	}
	zonesRelation, err := db.CreateRelation(zonesRel, zonesSchema)
	if err != nil {
		t.Fatal(err)
	}
	var ss []site
	for i := 0; i < 9; i++ {
		s := site{P: geom.Pt(float64(100+100*(i%3)), float64(100+100*(i/3))), Kind: int64(i % 2)}
		ss = append(ss, s)
		oid := sitePic.AddPoint("", s.P)
		if _, err := sites.Insert(pictdb.Tuple{pictdb.I(int64(i + 1)), pictdb.I(s.Kind), pictdb.L(siteMap, oid)}); err != nil {
			t.Fatal(err)
		}
	}
	zs := []zone{{R: geom.R(50, 50, 250, 250), ID: 0}}
	oid := zonePic.AddRegion("", geom.Poly(geom.Pt(50, 50), geom.Pt(250, 50), geom.Pt(250, 250), geom.Pt(50, 250)))
	if _, err := zonesRelation.Insert(pictdb.Tuple{pictdb.I(0), pictdb.L(zoneMap, oid)}); err != nil {
		t.Fatal(err)
	}
	if err := sites.AttachPicture(sitePic, pictdb.PackOptions{Method: pictdb.PackNN}); err != nil {
		t.Fatal(err)
	}
	if err := zonesRelation.AttachPicture(zonePic, pictdb.PackOptions{Method: pictdb.PackNN}); err != nil {
		t.Fatal(err)
	}
	return db, ss, zs
}

// TestOraclesCatchDroppedRow feeds each oracle a result with one row
// dropped and requires it to fail, after passing the intact result.
func TestOraclesCatchDroppedRow(t *testing.T) {
	db, sites, zones := smallDB(t)
	lit, win := windowLiteral(200, 150, 200, 150)
	q := newQuery(opSearch, "select seq from sites on site-map at loc covered-by "+lit)
	q.win = win
	got, err := db.Query(q.text)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.QueryNaive(q.text)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 9 {
		t.Fatalf("window holds %d sites, want all 9", got.Len())
	}
	if err := sameResult(got, want); err != nil {
		t.Fatalf("intact result: %v", err)
	}
	dropped := *got
	dropped.Rows = got.Rows[1:]
	if sameResult(&dropped, want) == nil {
		t.Error("row-for-row oracle accepted a result with a dropped row")
	}

	// Brute-force count oracle.
	r := newRun("test", 1, 1, false, 1, 1, t.TempDir())
	q.observe(got.Len())
	if r.checkCounts([]*query{q}, sites, zones, 10); len(r.checkErrs) != 0 {
		t.Fatalf("intact count: %v", r.checkErrs)
	}
	q2 := newQuery(opSearch, q.text)
	q2.win = win
	q2.observe(got.Len() - 1)
	if r.checkCounts([]*query{q2}, sites, zones, 10); len(r.checkErrs) == 0 {
		t.Error("count oracle accepted a result with a dropped row")
	}

	// Snapshot prefix oracle: seeds are the nine sites, one logged
	// transaction deletes seq 1 and inserts seq 10 inside the window.
	seeds := func() map[int64]liveTuple {
		m := map[int64]liveTuple{}
		for i, s := range sites {
			m[int64(i+1)] = liveTuple{seq: int64(i + 1), kind: s.Kind, p: s.P}
		}
		return m
	}
	log := []change{{ins: []liveTuple{{seq: 10, kind: 0, p: geom.Pt(150, 150)}}, del: []int64{1}, acked: true}}
	rows := func(seqs ...int64) *pictdb.Result {
		res := &pictdb.Result{}
		for _, s := range seqs {
			v := got.Rows[0][0]
			v.Int = s
			res.Rows = append(res.Rows, []psql.Datum{v})
		}
		return res
	}
	before := rows(1, 2, 3, 4, 5, 6, 7, 8, 9)
	after := rows(2, 3, 4, 5, 6, 7, 8, 9, 10)
	r = newRun("test", 1, 1, false, 1, 1, t.TempDir())
	r.checkPrefixes(seeds(), log, []snapSample{{q: q, lo: 0, hi: 1, res: before}, {q: q, lo: 0, hi: 1, res: after}})
	if len(r.checkErrs) != 0 {
		t.Fatalf("intact snapshots: %v", r.checkErrs)
	}
	r.checkPrefixes(seeds(), log, []snapSample{{q: q, lo: 0, hi: 1, res: rows(2, 3, 4, 5, 6, 7, 8, 9)}})
	if len(r.checkErrs) == 0 {
		t.Error("snapshot oracle accepted a result with a dropped row")
	}
}

// TestFinishTraceMissingMetric requires finishTrace to zero-fill only
// the workload's not-applicable metrics, leaving any other metric the
// run did not produce missing, so benchMain fails the run.
func TestFinishTraceMissingMetric(t *testing.T) {
	r := newRun("test", 1, 1, true, 1, 1, t.TempDir())
	r.finishTrace([]string{"relation.delete_us"})
	if v, ok := r.metrics["relation.delete_us"]; !ok || v != 0 {
		t.Errorf("relation.delete_us = %v, %v; want 0, reported", v, ok)
	}
	if _, ok := r.metrics["rtree.search_us"]; ok {
		t.Error("rtree.search_us was not measured but is reported")
	}
	if got := fmt.Sprint(r.env["not_applicable"]); got != "[relation.delete_us]" {
		t.Errorf("not_applicable %s, want [relation.delete_us]", got)
	}
}
