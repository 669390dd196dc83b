package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// benchRecord is the subset of tltsim's -bench-out record the
// benchmark reads.
type benchRecord struct {
	Cells            int      `json:"cells"`
	Events           uint64   `json:"events"`
	Packets          uint64   `json:"packets"`
	Cascades         uint64   `json:"cascades"`
	ShardEvents      []uint64 `json:"shard_events"`
	SetupWallSeconds float64  `json:"setup_wall_seconds"`
	AllocMBPerCell   float64  `json:"alloc_mb_per_cell"`
	PeakHeapBytes    uint64   `json:"peak_heap_bytes"`
}

// report is tltsim's -format json output: one row per grid cell.
type report struct {
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes"`
}

// childRun is one tltsim process: its host cost measured from outside
// (wall from spawn to exit, CPU and peak RSS from rusage) and the
// outputs it wrote.
type childRun struct {
	wall, cpu, rssMB float64
	rec              benchRecord
	rep              report
	digest           string // hash of the report rows
}

// counters are the deterministic work counts a run must repeat exactly.
func (c childRun) counters() string {
	return fmt.Sprintf("events=%d packets=%d cascades=%d shard_events=%v",
		c.rec.Events, c.rec.Packets, c.rec.Cascades, c.rec.ShardEvents)
}

// childEnv is the benchmark's environment minus the variables that tune
// the Go runtime, so every child starts from the same defaults whatever
// the caller or an earlier child set.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch strings.SplitN(kv, "=", 2)[0] {
		case "GOGC", "GOMEMLIMIT", "GODEBUG", "GOMAXPROCS":
			continue
		}
		env = append(env, kv)
	}
	return env
}

// runChild starts a fresh tltsim with args plus the flags that make it
// write its rows and bench record, waits for it, and reads both back.
// tag names the run's files under dir and its span under parent.
func runChild(bin, dir, tag string, args []string, spans *spanLog, parent int) (childRun, error) {
	var c childRun
	stdoutPath := filepath.Join(dir, tag+".rows.json")
	benchPath := filepath.Join(dir, tag+".bench.json")
	stdout, err := os.Create(stdoutPath)
	if err != nil {
		return c, err
	}
	defer stdout.Close()
	var stderr strings.Builder
	cmd := exec.Command(bin, append(append([]string{}, args...),
		"-format", "json", "-bench-out", benchPath)...)
	cmd.Env = childEnv()
	// Take the child down with the benchmark if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = stdout
	cmd.Stderr = &stderr

	id := spans.start("tltsim "+tag, parent)
	start := time.Now()
	err = cmd.Run()
	c.wall = time.Since(start).Seconds()
	spans.end(id)
	if err != nil {
		return c, fmt.Errorf("tltsim %s: %v\n%s", strings.Join(args, " "), err, tail(stderr.String(), 2000))
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	c.cpu = seconds(ru.Utime) + seconds(ru.Stime)
	c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB

	raw, err := os.ReadFile(stdoutPath)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(raw, &c.rep); err != nil {
		return c, fmt.Errorf("tltsim %s: rows: %v", tag, err)
	}
	rows, err := json.Marshal(c.rep.Rows)
	if err != nil {
		return c, err
	}
	sum := sha256.Sum256(rows)
	c.digest = hex.EncodeToString(sum[:8])

	raw, err = os.ReadFile(benchPath)
	if err != nil {
		return c, err
	}
	var file struct {
		Records []benchRecord `json:"records"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return c, fmt.Errorf("tltsim %s: bench record: %v", tag, err)
	}
	if len(file.Records) != 1 {
		return c, fmt.Errorf("tltsim %s: want 1 bench record, got %d", tag, len(file.Records))
	}
	c.rec = file.Records[0]
	return c, nil
}

func seconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func tail(s string, n int) string {
	if len(s) > n {
		return "…" + s[len(s)-n:]
	}
	return s
}
