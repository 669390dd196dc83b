package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of a benchmark invocation: a child
// process from spawn to exit, a build, a profile fold or an in-process
// probe call. Parent is the enclosing span's ID (0 for the root), so a
// layer's self time is its duration minus what its children cover.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps every span of one invocation in memory; write dumps
// them once the invocation is over, so recording costs no I/O while
// anything is being timed. Start and end are nanoseconds since t0.
type spanLog struct {
	RunID string `json:"run_id"`
	t0    time.Time
	Spans []span `json:"spans"`
}

func newSpanLog(runID string) *spanLog {
	return &spanLog{RunID: runID, t0: time.Now()}
}

// start opens a span under parent and returns its ID.
func (l *spanLog) start(name string, parent int) int {
	l.Spans = append(l.Spans, span{
		ID:      len(l.Spans) + 1,
		Parent:  parent,
		Name:    name,
		StartNS: time.Since(l.t0).Nanoseconds(),
	})
	return len(l.Spans)
}

// end closes span id and returns its duration in seconds.
func (l *spanLog) end(id int) float64 {
	s := &l.Spans[id-1]
	s.EndNS = time.Since(l.t0).Nanoseconds()
	return float64(s.EndNS-s.StartNS) / 1e9
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
