package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// layers are the per-layer shares the fold reports, named after the
// repository's internal packages. pdes is the sim.Group coordination
// split out of the rest of sim; gc is the collector's mark, sweep,
// assist and write-barrier work split out of the rest of runtime; other
// is everything else (stdlib, chaos, audit, trace, cmd/tltsim).
var layers = []string{
	"sim", "pdes", "fabric", "packet", "transport", "tcp", "dcqcn", "hpcc", "core",
	"topo", "workload", "app", "stats", "experiments", "gc", "runtime", "other",
}

var (
	pdesFunc = regexp.MustCompile(`^sim\.(\(\*Group\)|NewGroup|sortXfers)`)
	gcFunc   = regexp.MustCompile(`^runtime\.(gc|scan|markroot|greyobject|findObject|sweep|bgsweep|bgscavenge|wbBuf|bulkBarrier|typePointers|spanOf|\(\*gc|\(\*wbBuf\)|\(\*sweepLocked\)|\(\*mspan\)\.(sweep|typePointers|markBits))`)
)

// layerOf maps a pprof function name to its layer.
func layerOf(fn string) string {
	if pkgFn, ok := strings.CutPrefix(fn, "tlt/internal/"); ok {
		// The package path ends at the first dot after its last slash;
		// receivers and type arguments may hold dots and slashes too.
		head := pkgFn
		if i := strings.IndexAny(head, "(["); i >= 0 {
			head = head[:i]
		}
		slash := strings.LastIndexByte(head, '/') + 1
		dot := strings.IndexByte(head[slash:], '.')
		if dot < 0 {
			return "other"
		}
		pkg := head[:slash+dot]
		switch {
		case pkg == "sim" && pdesFunc.MatchString(pkgFn):
			return "pdes"
		case strings.HasPrefix(pkg, "transport/"):
			pkg = strings.SplitN(pkg[len("transport/"):], "/", 2)[0]
		case strings.HasPrefix(pkg, "fabric/"):
			pkg = "fabric"
		}
		for _, l := range layers {
			if l == pkg {
				return pkg
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") {
		if gcFunc.MatchString(fn) {
			return "gc"
		}
		return "runtime"
	}
	return "other"
}

// foldProfile folds a CPU profile's flat samples by layer with
// `go tool pprof -top`. It returns each layer's share of all samples
// and the sampled CPU seconds they sum to.
func foldProfile(profile string) (map[string]float64, float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v", err)
	}
	ms := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, 0, fmt.Errorf("go tool pprof: bad flat value %q", f[0])
		}
		ms[layerOf(f[5])] += v
		total += v
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("go tool pprof: no samples in %s", profile)
	}
	frac := map[string]float64{}
	for _, l := range layers {
		frac[l] = ms[l] / total
	}
	return frac, total / 1e3, nil
}
