package main

import "tlt/internal/sim"

// workloadSpec is one tltsim invocation the benchmark times. Why each one
// was chosen, and which layers it should expose, is in README.md.
type workloadSpec struct {
	name  string
	args  []string // tltsim flags
	cells int      // grid cells (= report rows) one run executes
	// refArgs, when set, are the flags of one untimed reference run whose
	// rows every timed run must reproduce exactly.
	refArgs   []string
	direction func(table) []failure // paper-direction check, or nil
	probe     probe
}

var workloads = []workloadSpec{
	{
		name:      "leafspine-tcp",
		args:      []string{"-exp", "fig5", "-bg", "60", "-seeds", "1", "-points", "2", "-procs", "1", "-shards", "1"},
		cells:     12,
		direction: tltCutsTimeoutsAndTail,
		probe:     leafSpineProbe(10*sim.Microsecond, 60),
	},
	{
		name:      "leafspine-rdma",
		args:      []string{"-exp", "fig6", "-bg", "60", "-seeds", "1", "-points", "2", "-procs", "1", "-shards", "1"},
		cells:     14,
		direction: tltCutsHPCCTail,
		probe:     leafSpineProbe(sim.Microsecond, 60),
	},
	{
		name:    "fattree-churn",
		args:    []string{"-exp", "scale-sweep", "-bg", "25000", "-points", "1", "-seeds", "1", "-procs", "2", "-shards", "2"},
		cells:   2,
		refArgs: []string{"-exp", "scale-sweep", "-bg", "25000", "-points", "1", "-seeds", "1", "-procs", "2", "-shards", "1"},
		probe:   fatTreeProbe(8, 2, 25000, 0.6),
	},
}
