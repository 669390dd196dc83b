package main

import (
	"math"
	"testing"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"tlt/internal/sim.(*Sim).Run":                       "sim",
		"tlt/internal/sim.(*Group).inject":                  "pdes",
		"tlt/internal/sim.sortXfers":                        "pdes",
		"tlt/internal/fabric.(*Switch).Receive":             "fabric",
		"tlt/internal/fabric/mmu.(*bfc).Admit":              "fabric",
		"tlt/internal/transport.(*PktBoard).RackMark":       "transport",
		"tlt/internal/transport/tcp.(*Sender).applySack":    "tcp",
		"tlt/internal/transport/hpcc.(*Sender).onAck.func1": "hpcc",
		"tlt/internal/chaos.(*Plan).ApplyResolved":          "other",
		"tlt/internal/stats.Sorted[go.shape.float64]":       "stats",
		"runtime.scanobject":                                "gc",
		"runtime.(*gcWork).tryGet":                          "gc",
		"runtime.bulkBarrierPreWrite":                       "gc",
		"runtime.mallocgc":                                  "runtime",
		"runtime.memmove":                                   "runtime",
		"sort.insertionSort":                                "other",
		"main.main":                                         "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestDurSeconds(t *testing.T) {
	for s, want := range map[string]float64{"854.5us": 854.5e-6, "8.27ms": 8.27e-3, "1.2s": 1.2, "500ns": 500e-9} {
		if got, ok := durSeconds(s); !ok || math.Abs(got-want) > 1e-9*want {
			t.Errorf("durSeconds(%q) = %v, %v; want %v", s, got, ok, want)
		}
	}
	if _, ok := durSeconds("n/a"); ok {
		t.Error("durSeconds(n/a) parsed")
	}
}

func TestChecksCountFailedCells(t *testing.T) {
	hdr := []string{"variant", "fg p99.9 FCT", "timeouts/1k", "incomplete"}
	good := report{Header: hdr, Rows: [][]string{
		{"dctcp", "8.27ms", "397.5", "0"},
		{"dctcp+tlt", "2.92ms", "0.0", "0"},
	}}
	bad := report{Header: hdr, Rows: [][]string{
		{"dctcp", "8.27ms", "397.5", "0"},
		{"dctcp+tlt", "5.00ms", "0.0", "3"},
	}}
	w := workloadSpec{cells: 2, direction: tltCutsTimeoutsAndTail}
	first := childRun{rep: good, rec: benchRecord{Cells: 2, Events: 10}}
	b := &bench{w: w, tags: []string{"run1", "run2", "run3"}}
	b.fails = append(b.fails, checkRun(w, "run1", first)...)
	if len(b.fails) != 0 {
		t.Fatalf("good run failed: %v", b.fails)
	}
	// run2: the tlt cell is incomplete, misses the paper direction and
	// differs from run1 — still one failed cell.
	second := childRun{rep: bad, rec: benchRecord{Cells: 2, Events: 10}}
	b.fails = append(b.fails, checkRun(w, "run2", second)...)
	b.fails = append(b.fails, checkRepeat("run2", first, second)...)
	// run3: same rows, different counters — every cell fails.
	third := childRun{rep: good, rec: benchRecord{Cells: 2, Events: 11}}
	b.fails = append(b.fails, checkRepeat("run3", first, third)...)
	if got := b.failedCells(); got != 3 {
		t.Errorf("failedCells = %d, want 3; failures: %v", got, b.fails)
	}
	for _, f := range b.fails {
		if f.known {
			t.Errorf("failure %v marked known", f)
		}
	}
	sh := checkShards("run1", childRun{rep: bad}, first)
	if len(sh) != 1 || !sh[0].known || sh[0].variant != "dctcp+tlt" {
		t.Errorf("checkShards = %v, want one known dctcp+tlt failure", sh)
	}
}
