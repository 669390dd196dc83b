// Command perfbench is the repository benchmark. It builds cmd/tltsim
// from the checkout the way users build it (the committed default.pgo
// applies), runs one workload as a fresh tltsim process per run until
// the measuring time is spent, times each process from outside, checks
// every output, and prints the metrics by name with their units. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 48, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 one
// extra run under -cpuprofile is folded by layer, the topology and
// workload builders are timed in this process, and the metrics are the
// per-layer ones. Run it through run.sh, which builds it; README.md
// lists the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: leafspine-tcp, leafspine-rdma or fattree-churn")
		seed    = flag.Int64("seed", 1, "seed of the in-process probe inputs")
		seconds = flag.Int("seconds", 20, "measuring time: timed runs start until this many seconds have passed")
		trace   = flag.Int("trace", 0, "1 adds one profiled run and prints the per-layer metrics instead")
	)
	flag.Parse()
	var w *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad -workload %q, -seconds %d or -trace %d\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	b := &bench{w: *w, seed: *seed, trace: *trace == 1, measure: time.Duration(*seconds) * time.Second}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// out holds the built tltsim, each run's outputs and the spans, under
// the checkout root the benchmark runs from.
const out = ".bench_build"

// bench is one invocation: one workload, measured once.
type bench struct {
	w       workloadSpec
	seed    int64
	trace   bool
	measure time.Duration

	bin, dir string
	spans    *spanLog
	fails    []failure
	tags     []string // every tltsim run started, timed or traced
}

func (b *bench) run() (*result, error) {
	b.spans = newSpanLog(fmt.Sprintf("%s-seed%d-%d", b.w.name, b.seed, time.Now().UnixNano()))
	b.bin = filepath.Join(out, "tltsim")
	b.dir = filepath.Join(out, "runs", b.w.name)
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	top := b.spans.start("perfbench "+b.w.name, 0)

	id := b.spans.start("go build ./cmd/tltsim", top)
	build := exec.Command("go", "build", "-o", b.bin, "./cmd/tltsim")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/tltsim: %v", err)
	}
	b.spans.end(id)

	var ref *childRun
	if b.w.refArgs != nil {
		c, err := runChild(b.bin, b.dir, "reference", b.w.refArgs, b.spans, top)
		if err != nil {
			return nil, fmt.Errorf("untimed reference run: %v", err)
		}
		ref = &c
	}

	// Timed runs start until the measuring time has passed; there is
	// always one.
	var runs []childRun
	start := time.Now()
	for i := 1; i == 1 || time.Since(start) < b.measure; i++ {
		if c, ok := b.child(fmt.Sprintf("run%d", i), b.w.args, top, runs, ref); ok {
			runs = append(runs, c)
		}
	}
	if len(runs) == 0 {
		for _, f := range b.fails {
			fmt.Println(f)
		}
		return nil, fmt.Errorf("no timed run of %s finished", b.w.name)
	}

	e2e := endToEnd(runs)
	res := &result{Metrics: e2e}
	if b.trace {
		layer, err := b.traced(top, runs, ref, e2e)
		if err != nil {
			return nil, err
		}
		res.Metrics = layer
	}
	b.spans.end(top)
	spanFile := fmt.Sprintf("%s-seed%d", b.w.name, b.seed)
	if b.trace {
		spanFile += "-traced"
	}
	if err := b.spans.write(filepath.Join(out, "spans", spanFile+".json")); err != nil {
		return nil, err
	}

	res.Correct = true
	for _, f := range b.fails {
		res.Correct = res.Correct && f.known
	}
	res.Attempted = len(b.tags) * b.w.cells
	res.Failed = b.failedCells()
	e2e["cell_pass_frac"] = metric{1 - float64(res.Failed)/float64(res.Attempted), "frac"}
	b.print(runs, e2e, res)
	if b.trace {
		printMetrics(res.Metrics)
	}
	return res, nil
}

// child runs tltsim once and checks its outputs against the first run
// and the reference run. A run that crashed fails all its cells.
func (b *bench) child(tag string, args []string, parent int, prev []childRun, ref *childRun) (childRun, bool) {
	b.tags = append(b.tags, tag)
	c, err := runChild(b.bin, b.dir, tag, args, b.spans, parent)
	if err != nil {
		b.fails = append(b.fails, failure{run: tag, check: "exit", detail: err.Error()})
		return c, false
	}
	b.fails = append(b.fails, checkRun(b.w, tag, c)...)
	if len(prev) > 0 {
		b.fails = append(b.fails, checkRepeat(tag, prev[0], c)...)
	}
	if ref != nil {
		b.fails = append(b.fails, checkShards(tag, *ref, c)...)
	}
	return c, true
}

// failedCells counts distinct failed cells: every cell of a run with a
// run-wide failure, else each variant named by a failure once.
func (b *bench) failedCells() int {
	all := map[string]bool{}
	cells := map[string]map[string]bool{}
	for _, f := range b.fails {
		if f.variant == "" {
			all[f.run] = true
			continue
		}
		if cells[f.run] == nil {
			cells[f.run] = map[string]bool{}
		}
		cells[f.run][f.variant] = true
	}
	n := 0
	for _, run := range b.tags {
		if all[run] {
			n += b.w.cells
		} else {
			n += min(len(cells[run]), b.w.cells)
		}
	}
	return n
}

// endToEnd is the medians over the timed runs of what a user of tltsim
// pays per run of the workload.
func endToEnd(runs []childRun) map[string]metric {
	var wall, cpu, setup, pps, rss []float64
	for _, c := range runs {
		wall = append(wall, c.wall)
		cpu = append(cpu, c.cpu)
		setup = append(setup, c.rec.SetupWallSeconds)
		pps = append(pps, float64(c.rec.Packets)/(c.wall-c.rec.SetupWallSeconds))
		rss = append(rss, c.rssMB)
	}
	return map[string]metric{
		"wall_s":      {median(wall), "s"},
		"cpu_s":       {median(cpu), "s"},
		"setup_s":     {median(setup), "s"},
		"pkts_per_s":  {median(pps), "1/s"},
		"peak_rss_mb": {median(rss), "MB"},
	}
}

// traced makes the one profiled run, folds its profile by layer, times
// the workload's topology and traffic builders in this process, and
// returns the per-layer metrics.
func (b *bench) traced(parent int, runs []childRun, ref *childRun, e2e map[string]metric) (map[string]metric, error) {
	prof := filepath.Join(b.dir, "cpu.pb.gz")
	c, ok := b.child("traced", append(append([]string{}, b.w.args...), "-cpuprofile", prof), parent, runs, ref)
	if !ok {
		return nil, fmt.Errorf("traced run of %s failed", b.w.name)
	}
	id := b.spans.start("go tool pprof -top", parent)
	frac, profCPU, err := foldProfile(prof)
	if err != nil {
		return nil, err
	}
	b.spans.end(id)

	id = b.spans.start("probe", parent)
	buildS, genS := b.w.probe(b.seed, b.spans, id)
	b.spans.end(id)

	m := map[string]metric{}
	for _, l := range layers {
		m[l+".self_frac"] = metric{frac[l], "frac"}
	}
	r := c.rec
	ev, pk := float64(r.Events), float64(r.Packets)
	var maxShard, sumShard float64
	for _, e := range r.ShardEvents {
		maxShard = max(maxShard, float64(e))
		sumShard += float64(e)
	}
	m["sim.events"] = metric{ev, "count"}
	m["sim.ns_per_event"] = metric{frac["sim"] * profCPU * 1e9 / ev, "ns"}
	m["sim.events_per_pkt"] = metric{ev / pk, "ratio"}
	m["sim.cascades_per_event"] = metric{float64(r.Cascades) / ev, "ratio"}
	m["pdes.shard_imbalance"] = metric{maxShard / (sumShard / float64(len(r.ShardEvents))), "ratio"}
	m["pdes.cores_used"] = metric{e2e["cpu_s"].Value / e2e["wall_s"].Value, "ratio"}
	m["fabric.pkts"] = metric{pk, "count"}
	m["fabric.ns_per_pkt"] = metric{frac["fabric"] * profCPU * 1e9 / pk, "ns"}
	m["topo.build_s"] = metric{buildS, "s"}
	m["workload.gen_s"] = metric{genS, "s"}
	var heap, alloc []float64
	for _, c := range runs {
		heap = append(heap, float64(c.rec.PeakHeapBytes)/(1<<20))
		alloc = append(alloc, c.rec.AllocMBPerCell)
	}
	m["gc.peak_heap_mb"] = metric{median(heap), "MB"}
	m["gc.alloc_mb_per_cell"] = metric{median(alloc), "MB"}
	m["trace.wall_s"] = metric{c.wall, "s"}
	m["trace.overhead_s"] = metric{c.wall - e2e["wall_s"].Value, "s"}
	return m, nil
}

// print writes the human-readable summary above the JSON line.
func (b *bench) print(runs []childRun, e2e map[string]metric, res *result) {
	first := runs[0]
	fmt.Printf("perfbench %s: %d timed runs of tltsim %s\n", b.w.name, len(runs), strings.Join(b.w.args, " "))
	fmt.Printf("sim_digest %s  %s\n", first.digest, first.counters())
	printMetrics(e2e)
	fmt.Printf("%-24s %.4g frac (%d of %d cells failed a check)\n", "cell_fail_frac",
		1-e2e["cell_pass_frac"].Value, res.Failed, res.Attempted)
	for _, f := range b.fails {
		fmt.Println(f)
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-24s %.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
