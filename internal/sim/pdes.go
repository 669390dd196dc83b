// Conservative parallel DES: a Group runs N shard simulators in
// lockstep time windows sized by the minimum cross-shard link latency
// (the lookahead). Within a window shards execute independently —
// nothing a shard does before the window closes can affect another
// shard earlier than the lookahead — and cross-shard hand-offs are
// exchanged at window barriers through per-(source, destination)
// outboxes.
//
// Determinism does not depend on the partition: hand-offs are injected
// into the destination shard in a canonical (arrival time, key) order,
// where the key is unique per hand-off (wire id + per-wire sequence).
// Because every hand-off lands in a strictly later window than the one
// that produced it, the injection point — after all of window k's
// events, before any of window k+1's — is the same no matter how many
// shards the model is split across. A single-shard Group therefore
// fires events in exactly the same order as a 4-shard one, and reports
// built on either are byte-identical.
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// xfer is one cross-shard hand-off: a typed kind+target pair to inject
// into the destination shard at the next window barrier.
type xfer struct {
	at   Time
	key  uint64
	arg  any
	tgt  uint32
	kind EventKind
}

// Group synchronizes N shard simulators with conservative time windows.
// Model code running inside a window may call SendKind (to hand work to
// another shard), RequestStop, and Stopping; everything else on Group
// is coordinator-only.
type Group struct {
	shards    []*Sim
	lookahead Time
	workers   int

	// out holds one outbox per (source, destination) pair at
	// out[src*stride+dst]; only src's worker appends to it mid-window.
	// The stride pads each source's row of slice headers to whole cache
	// lines, so workers appending in parallel do not share one.
	out    [][]xfer
	stride int
	runs   []int // scratch: sources with a non-empty run to the destination
	pos    []int // scratch: merge cursor per source

	// stopReq is set by model code (any shard, mid-window); it is
	// latched into stopLatched only at barriers so every shard observes
	// the stop at the same window boundary regardless of partition.
	stopReq     atomic.Bool
	stopLatched bool
}

// NewGroup returns a Group of n fresh simulators with the given
// lookahead. Every cross-shard hand-off must arrive at least lookahead
// after it is sent; the topology builder derives it from the minimum
// latency of the links it routes through mailboxes.
func NewGroup(n int, lookahead Time) *Group {
	if n < 1 {
		panic(fmt.Sprintf("sim: group of %d shards", n))
	}
	if lookahead < 1 {
		panic(fmt.Sprintf("sim: group lookahead %v must be positive", lookahead))
	}
	stride := (n + 7) &^ 7 // 8 headers of 24 bytes = 3 cache lines
	g := &Group{
		shards:    make([]*Sim, n),
		lookahead: lookahead,
		workers:   1,
		out:       make([][]xfer, n*stride),
		stride:    stride,
		runs:      make([]int, 0, n),
		pos:       make([]int, n),
	}
	for i := range g.shards {
		g.shards[i] = New()
	}
	return g
}

// Shard returns the i'th shard simulator.
func (g *Group) Shard(i int) *Sim { return g.shards[i] }

// Shards returns the number of shards.
func (g *Group) Shards() int { return len(g.shards) }

// Lookahead returns the group's synchronization window span.
func (g *Group) Lookahead() Time { return g.lookahead }

// SetWorkers bounds how many OS-level workers execute a window. The
// default 1 runs shards sequentially on the caller's goroutine — the
// fast path when cells already saturate the machine via -procs.
func (g *Group) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	g.workers = n
}

// SendKind queues a hand-off from shard src to shard dst: the kind's
// handler fires on dst at absolute time at with (target, arg), where tgt
// was registered on the DESTINATION shard's simulator. The key must be
// unique among all hand-offs at the same instant (wires use
// id<<32 | seq); it fixes the injection order so the destination's
// event sequence is independent of the partition. SendKind may only be
// called from code executing on src.
func (g *Group) SendKind(src, dst int, at Time, key uint64, k EventKind, tgt uint32, arg any) {
	i := src*g.stride + dst
	g.out[i] = append(g.out[i], xfer{at: at, key: key, kind: k, tgt: tgt, arg: arg})
}

// RequestStop asks the group to stop at the next window barrier. Safe
// to call from any shard mid-window; the run ends only at a barrier so
// every shard stops at the same boundary.
func (g *Group) RequestStop() { g.stopReq.Store(true) }

// Stopping reports whether the stop request has been latched at a
// barrier. Self-rescheduling model events (samplers) consult it instead
// of the raw request so their reschedule decision is made with
// barrier-consistent state on every shard.
func (g *Group) Stopping() bool { return g.stopLatched }

// Run executes the group until the queues drain, a stop request is
// latched, or the horizon passes. It returns the group end time, to
// which every shard's clock has been aligned.
func (g *Group) Run(horizon Time) Time {
	for {
		g.stopLatched = g.stopReq.Load()
		if g.stopLatched {
			break
		}
		g.inject()
		t0, ok := g.minNext()
		if !ok || t0 > horizon {
			break
		}
		end := t0 + g.lookahead - 1
		if end > horizon {
			end = horizon
		}
		g.runWindow(end)
	}
	var end Time
	for _, s := range g.shards {
		if s.now > end {
			end = s.now
		}
	}
	for _, s := range g.shards {
		s.AlignClock(end)
	}
	return end
}

// inject drains every outbox into its destination shard in canonical
// (at, key) order. Hand-offs always target a strictly later window, so
// injection cannot schedule into a shard's past.
//
// Each (src, dst) run is first put in order in place; a source's
// deliveries leave at nondecreasing times over a uniform link delay, so
// only same-instant key ties are out of place and the fix-up is linear.
// A destination's runs are then merged by scanning the run heads — at
// most one run per shard, so a linear scan beats a heap — and posted
// straight from the outboxes. Ties go to the lower source, so the order
// is the one a stable sort of the runs' concatenation gives; keys are
// unique, so that is the total (at, key) order.
func (g *Group) inject() {
	n, st, pos := len(g.shards), g.stride, g.pos
	for d, s := range g.shards {
		runs := g.runs[:0]
		for src := 0; src < n; src++ {
			if r := g.out[src*st+d]; len(r) > 0 {
				sortXfers(r)
				pos[src] = 0
				runs = append(runs, src)
			}
		}
		if len(runs) == 0 {
			continue
		}
		for len(runs) > 1 {
			bi := 0
			best := &g.out[runs[0]*st+d][pos[runs[0]]]
			for r := 1; r < len(runs); r++ {
				x := &g.out[runs[r]*st+d][pos[runs[r]]]
				if x.at < best.at || (x.at == best.at && x.key < best.key) {
					bi, best = r, x
				}
			}
			s.PostKind(best.at, best.kind, best.tgt, best.arg)
			src := runs[bi]
			if pos[src]++; pos[src] == len(g.out[src*st+d]) {
				runs = append(runs[:bi], runs[bi+1:]...)
			}
		}
		// The last run posts straight; a one-shard group never merges.
		last := runs[0]
		p := g.out[last*st+d]
		for j := pos[last]; j < len(p); j++ {
			s.PostKind(p[j].at, p[j].kind, p[j].tgt, p[j].arg)
		}
		for src := 0; src < n; src++ {
			i := src*st + d
			clear(g.out[i]) // don't pin pooled packets
			g.out[i] = g.out[i][:0]
		}
	}
}

// sortXfers orders one (src, dst) run by (at, key) in place. Keys are
// unique, so the order is total. A run arrives already ordered by at
// except when its source mixes link delays, so this allocation-free
// insertion pass moves only the same-instant key ties and is linear on
// the common input; a run that is not ordered by at still comes out
// right, at quadratic cost.
func sortXfers(p []xfer) {
	for i := 1; i < len(p); i++ {
		x := p[i]
		j := i - 1
		for j >= 0 && (p[j].at > x.at || (p[j].at == x.at && p[j].key > x.key)) {
			p[j+1] = p[j]
			j--
		}
		p[j+1] = x
	}
}

// minNext returns the earliest pending event time across all shards.
func (g *Group) minNext() (Time, bool) {
	var best Time
	ok := false
	for _, s := range g.shards {
		if t, o := s.NextTime(); o && (!ok || t < best) {
			best = t
			ok = true
		}
	}
	return best, ok
}

// runWindow advances every shard to end. With one worker the shards run
// sequentially on the caller's goroutine; otherwise up to g.workers
// goroutines claim shards from a shared counter. Each shard is executed
// by exactly one goroutine per window, and each writes only its own
// outbox, so windows race-free regardless of scheduling.
func (g *Group) runWindow(end Time) {
	if g.workers <= 1 || len(g.shards) == 1 {
		for _, s := range g.shards {
			s.Run(end)
		}
		return
	}
	n := g.workers
	if n > len(g.shards) {
		n = len(g.shards)
	}
	var next atomic.Int32
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(g.shards) {
				return
			}
			g.shards[i].Run(end)
		}
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 0; i < n-1; i++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
