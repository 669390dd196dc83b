package main

import (
	"fmt"
	"strconv"
	"strings"
)

// failure is one failed output check. Variant names the failed cell
// (the row's "variant" column); empty means every cell of the run.
// Known marks the shard-count divergence the benchmark reports on
// purpose: it counts as failed cells but does not make the run's
// outputs incorrect, since each shard count is itself deterministic.
type failure struct {
	run     string
	variant string
	check   string
	detail  string
	known   bool
}

func (f failure) String() string {
	cell := f.variant
	if cell == "" {
		cell = "all cells"
	}
	s := fmt.Sprintf("FAIL %s %s [%s]: %s", f.run, cell, f.check, f.detail)
	if f.known {
		s += " (known shard-count divergence)"
	}
	return s
}

// table indexes a report's rows by variant.
type table struct{ report }

func (t table) col(name string) int {
	for i, h := range t.Header {
		if h == name {
			return i
		}
	}
	return -1
}

func (t table) variant(row []string) string {
	if i := t.col("variant"); i >= 0 && i < len(row) {
		return row[i]
	}
	return ""
}

// get returns column name of the row whose variant is v.
func (t table) get(v, name string) (string, bool) {
	c := t.col(name)
	for _, r := range t.Rows {
		if t.variant(r) == v && c >= 0 && c < len(r) {
			return r[c], true
		}
	}
	return "", false
}

// durSeconds parses the report's rendered durations: 854.5us, 8.27ms, 1.2s.
func durSeconds(s string) (float64, bool) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}} {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err == nil
		}
	}
	return 0, false
}

// alarms are the note fragments tltsim writes when a cell panicked, left
// flows unfinished or stalled, or rejected its fault plan.
var alarms = []string{"PANICKED", "incomplete=", "stall:", "bad fault plan"}

// checkRun applies the checks that need one run's outputs only: the
// grid has every cell, no cell panicked or left flows unfinished, and
// the workload's paper-direction check holds.
func checkRun(w workloadSpec, run string, c childRun) []failure {
	t := table{c.rep}
	var fs []failure
	fail := func(variant, check, format string, args ...any) {
		fs = append(fs, failure{run: run, variant: variant, check: check, detail: fmt.Sprintf(format, args...)})
	}
	if c.rec.Cells != w.cells || len(t.Rows) != w.cells {
		fail("", "grid", "want %d cells, got %d cells and %d rows", w.cells, c.rec.Cells, len(t.Rows))
	}
	inc, flows, done := t.col("incomplete"), t.col("flows"), t.col("done")
	for _, r := range t.Rows {
		v := t.variant(r)
		for i, x := range r {
			if x == "n/a" {
				fail(v, "complete", "column %q is n/a (cell panicked or measured nothing)", t.Header[i])
				break
			}
		}
		if inc >= 0 && r[inc] != "0" {
			fail(v, "complete", "%s flows incomplete", r[inc])
		}
		if flows >= 0 && done >= 0 && r[flows] != r[done] {
			fail(v, "complete", "%s of %s flows done", r[done], r[flows])
		}
	}
	for _, n := range t.Notes {
		for _, a := range alarms {
			if !strings.Contains(n, a) {
				continue
			}
			first := strings.SplitN(n, "\n", 2)[0]
			matched := false
			for _, r := range t.Rows {
				v := t.variant(r)
				if strings.HasPrefix(first, v+" seed ") || strings.Contains(first, "("+v+")") {
					fail(v, "notes", "%s", first)
					matched = true
				}
			}
			if !matched {
				fail("", "notes", "%s", first)
			}
			break
		}
	}
	if w.direction != nil {
		for _, f := range w.direction(t) {
			f.run = run
			fs = append(fs, f)
		}
	}
	return fs
}

// checkRepeat fails the cells of c whose rows differ from the first
// run's, and every cell when the deterministic counters differ: the
// same binary on the same flags must reproduce both exactly.
func checkRepeat(run string, first, c childRun) []failure {
	var fs []failure
	if c.counters() != first.counters() {
		fs = append(fs, failure{run: run, check: "repeat", detail: fmt.Sprintf("%s, first run %s", c.counters(), first.counters())})
	}
	for _, d := range diffRows(table{first.rep}, table{c.rep}) {
		d.run, d.check = run, "repeat"
		fs = append(fs, d)
	}
	return fs
}

// checkShards compares a run's rows with the untimed single-shard
// reference run: reports must be byte-identical at any shard count.
func checkShards(run string, ref, c childRun) []failure {
	var fs []failure
	for _, d := range diffRows(table{ref.rep}, table{c.rep}) {
		d.run, d.check, d.known = run, "shards", true
		d.detail += " (this run vs -shards 1)"
		fs = append(fs, d)
	}
	return fs
}

// diffRows returns one failure per variant of b whose row differs
// from a's, naming the differing columns.
func diffRows(a, b table) []failure {
	var fs []failure
	for _, r := range b.Rows {
		v := b.variant(r)
		var diffs []string
		for i, h := range b.Header {
			x, ok := a.get(v, h)
			if i < len(r) && (!ok || x != r[i]) {
				diffs = append(diffs, fmt.Sprintf("%s %s vs %s", h, r[i], x))
			}
		}
		if len(diffs) > 0 {
			fs = append(fs, failure{variant: v, detail: strings.Join(diffs, ", ")})
		}
	}
	return fs
}

// tltCutsTimeoutsAndTail is the fig5 headline: against the DCTCP
// baseline, DCTCP+TLT must have at most 1% of its timeouts and at
// least halve its foreground p99.9 FCT.
func tltCutsTimeoutsAndTail(t table) []failure {
	const base, tlt = "dctcp", "dctcp+tlt"
	to0, ok0 := num(t, base, "timeouts/1k")
	to1, ok1 := num(t, tlt, "timeouts/1k")
	p0, ok2 := dur(t, base, "fg p99.9 FCT")
	p1, ok3 := dur(t, tlt, "fg p99.9 FCT")
	if !(ok0 && ok1 && ok2 && ok3) {
		return []failure{{variant: tlt, check: "paper", detail: "dctcp or dctcp+tlt row missing or unparsable"}}
	}
	var fs []failure
	if to1 > 0.01*to0 {
		fs = append(fs, failure{variant: tlt, check: "paper", detail: fmt.Sprintf("timeouts/1k %.1f > 1%% of dctcp's %.1f", to1, to0)})
	}
	if p1 > 0.5*p0 {
		fs = append(fs, failure{variant: tlt, check: "paper", detail: fmt.Sprintf("fg p99.9 %.3gs not ≥50%% below dctcp's %.3gs", p1, p0)})
	}
	return fs
}

// tltCutsHPCCTail is the fig6 headline for lossy HPCC: TLT lowers the
// foreground p99.9 FCT.
func tltCutsHPCCTail(t table) []failure {
	const base, tlt = "hpcc", "hpcc+tlt"
	p0, ok0 := dur(t, base, "fg p99.9 FCT")
	p1, ok1 := dur(t, tlt, "fg p99.9 FCT")
	if !(ok0 && ok1) {
		return []failure{{variant: tlt, check: "paper", detail: "hpcc or hpcc+tlt row missing or unparsable"}}
	}
	if p1 >= p0 {
		return []failure{{variant: tlt, check: "paper", detail: fmt.Sprintf("fg p99.9 %.3gs not below hpcc's %.3gs", p1, p0)}}
	}
	return nil
}

func num(t table, v, col string) (float64, bool) {
	s, ok := t.get(v, col)
	if !ok {
		return 0, false
	}
	x, err := strconv.ParseFloat(s, 64)
	return x, err == nil
}

func dur(t table, v, col string) (float64, bool) {
	s, ok := t.get(v, col)
	if !ok {
		return 0, false
	}
	return durSeconds(s)
}
