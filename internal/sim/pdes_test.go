package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// call is a test hand-off's payload: callKind runs fn(v) on the
// destination shard.
type call struct {
	fn func(any)
	v  any
}

var callKind = NewKind(func(_, arg any) {
	c := arg.(call)
	c.fn(c.v)
})

// sendCall hands fn(v) from shard src to shard dst at time at.
func sendCall(g *Group, src, dst int, at Time, key uint64, fn func(any), v any) {
	g.SendKind(src, dst, at, key, callKind, 0, call{fn, v})
}

// pingPong builds the same toy model on an n-shard group: two nodes
// exchanging messages with a cross-node latency equal to the lookahead,
// each firing a few same-instant local events to exercise intra-window
// ordering. Node a lives on shard 0, node b on the last shard (the same
// shard when n == 1). It returns the observed event log.
func pingPong(n int, rounds int) []string {
	const la = Time(100)
	g := NewGroup(n, la)
	sa, sb := g.Shard(0), g.Shard(n-1)
	ashard, bshard := 0, n-1
	var log []string
	var key uint64
	send := func(src, dst int, s *Sim, at Time, label string, fn func(any)) {
		key++
		sendCall(g, src, dst, at, key, fn, label)
	}
	var ping, pong func(any)
	left := rounds
	ping = func(v any) {
		log = append(log, fmt.Sprintf("%d ping %v", sb.Now(), v))
		sb.Post(sb.Now()+3, func() { log = append(log, fmt.Sprintf("%d b-local", sb.Now())) })
		send(bshard, ashard, sb, sb.Now()+la, v.(string)+"'", pong)
	}
	pong = func(v any) {
		log = append(log, fmt.Sprintf("%d pong %v", sa.Now(), v))
		left--
		if left == 0 {
			g.RequestStop()
			return
		}
		sa.Post(sa.Now()+1, func() { log = append(log, fmt.Sprintf("%d a-local", sa.Now())) })
		send(ashard, bshard, sa, sa.Now()+la, fmt.Sprintf("r%d", rounds-left), ping)
	}
	sa.Post(0, func() { send(ashard, bshard, sa, la, "r0", ping) })
	g.Run(1 << 40)
	return log
}

// The tentpole invariant: the event log is byte-identical no matter how
// many shards the model is split across.
func TestGroupShardCountInvariant(t *testing.T) {
	one := pingPong(1, 6)
	if len(one) == 0 {
		t.Fatal("model produced no events")
	}
	for _, n := range []int{2, 3, 4} {
		if got := pingPong(n, 6); !reflect.DeepEqual(one, got) {
			t.Fatalf("%d-shard log differs from 1-shard:\n1: %v\n%d: %v", n, one, n, got)
		}
	}
}

// Same-instant hand-offs must inject in key order, not send order.
func TestGroupInjectionKeyOrder(t *testing.T) {
	g := NewGroup(2, 10)
	var log []int
	rec := func(v any) { log = append(log, v.(int)) }
	// Shard 0 sends keys out of order at the same arrival instant.
	g.Shard(0).Post(0, func() {
		sendCall(g, 0, 1, 10, 7, rec, 7)
		sendCall(g, 0, 1, 10, 3, rec, 3)
		sendCall(g, 0, 1, 10, 5, rec, 5)
	})
	g.Run(1 << 20)
	if want := []int{3, 5, 7}; !reflect.DeepEqual(log, want) {
		t.Fatalf("injection order = %v, want %v", log, want)
	}
}

// A stop request mid-window must not cut the window short: remaining
// events in the window still run, and nothing runs after the barrier.
func TestGroupStopLatchesAtBarrier(t *testing.T) {
	g := NewGroup(2, 100)
	var ran []string
	g.Shard(0).Post(5, func() {
		ran = append(ran, "stopper")
		g.RequestStop()
	})
	g.Shard(1).Post(50, func() { ran = append(ran, "same-window") })
	g.Shard(1).Post(500, func() { ran = append(ran, "next-window") })
	end := g.Run(1 << 20)
	want := []string{"stopper", "same-window"}
	if !reflect.DeepEqual(ran, want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
	if !g.Stopping() {
		t.Fatal("stop not latched")
	}
	if g.Shard(0).Now() != end || g.Shard(1).Now() != end {
		t.Fatalf("clocks not aligned: %v %v end %v",
			g.Shard(0).Now(), g.Shard(1).Now(), end)
	}
}

// The horizon bounds every window, and clocks align to the group end.
func TestGroupHorizonAndAlignment(t *testing.T) {
	g := NewGroup(3, 1000)
	var hits int
	g.Shard(0).Post(10, func() { hits++ })
	g.Shard(1).Post(20, func() { hits++ })
	g.Shard(2).Post(5000, func() { hits++ }) // beyond horizon
	end := g.Run(100)
	if hits != 2 {
		t.Fatalf("ran %d events, want 2", hits)
	}
	if end != 20 {
		t.Fatalf("end = %v, want 20", end)
	}
	for i := 0; i < 3; i++ {
		if g.Shard(i).Now() != end {
			t.Fatalf("shard %d clock %v != end %v", i, g.Shard(i).Now(), end)
		}
	}
}

// Parallel windows (workers > 1) must produce the same log as
// sequential execution of the same group size.
func TestGroupWorkersDeterministic(t *testing.T) {
	run := func(workers int) []string {
		const la = Time(50)
		g := NewGroup(4, la)
		g.SetWorkers(workers)
		logs := make([][]string, 4) // per-shard logs: no cross-worker writes
		keys := make([]uint64, 4)   // per-shard key counters, ditto
		// bounce[i] runs on shard i and touches only shard i's state.
		bounce := make([]func(any), 4)
		for i := 0; i < 4; i++ {
			i := i
			s := g.Shard(i)
			bounce[i] = func(v any) {
				hop := v.(int)
				logs[i] = append(logs[i], fmt.Sprintf("s%d t%d hop%d", i, s.Now(), hop))
				if hop < 20 {
					keys[i]++
					next := (i + 1) % 4
					sendCall(g, i, next, s.Now()+la, keys[i]<<8|uint64(i), bounce[next], hop+1)
				}
			}
		}
		for i := 0; i < 4; i++ {
			g.Shard(i).PostArg(Time(i), bounce[i], 0)
		}
		g.Run(1 << 30)
		var all []string
		for _, l := range logs {
			all = append(all, l...)
		}
		return all
	}
	seq := run(1)
	if len(seq) == 0 {
		t.Fatal("no events")
	}
	for _, w := range []int{2, 4, 8} {
		if got := run(w); !reflect.DeepEqual(seq, got) {
			t.Fatalf("workers=%d log differs:\nseq: %v\ngot: %v", w, seq, got)
		}
	}
}

// handoff is one hand-off's arrival time and key, as planned and as
// fired.
type handoff struct {
	at  Time
	key uint64
}

// Barrier injection must fire each destination's hand-offs in exactly
// the (at, key) order a full sort gives, whatever the runs look like:
// same-instant ties across sources and within one source, keys sent out
// of key order, and sources that mix two wire delays (so their runs are
// not ordered by at, which the fix-up pass must still handle).
//
// Sends sit on a 5ns grid; the long delay is 2 mod 5, so arrivals of the
// two delay classes never share an instant. Hand-offs that do share one
// were sent together and meet at the same barrier; the order of
// same-instant hand-offs injected at different barriers is the order of
// the barriers, which no sort can see.
func TestGroupInjectMatchesReferenceOrder(t *testing.T) {
	const la = Time(100)
	for seed := int64(1); seed <= 40; seed++ {
		for n := 1; n <= 4; n++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(n)))
			g := NewGroup(n, la)
			g.SetWorkers(1 + int(seed)%2)
			got := make([][]handoff, n)
			fire := make([]func(any), n) // fire[d] runs on shard d
			for d := range fire {
				d, s := d, g.Shard(d)
				fire[d] = func(v any) { got[d] = append(got[d], handoff{s.Now(), v.(uint64)}) }
			}
			used := map[uint64]bool{}
			long := la + 5*Time(rng.Intn(40)) + 2
			want := make([][]handoff, n)
			for src := 0; src < n; src++ {
				delays := []Time{la}
				if rng.Intn(2) == 0 {
					delays = append(delays, long)
				}
				s := g.Shard(src)
				for e := 0; e < 150; e++ {
					// A coarse send grid makes same-instant arrivals common.
					sendAt := Time(rng.Intn(40)) * 5
					key := rng.Uint64() >> 1
					for used[key] {
						key = rng.Uint64() >> 1
					}
					used[key] = true
					src, dst, d := src, rng.Intn(n), delays[rng.Intn(len(delays))]
					want[dst] = append(want[dst], handoff{sendAt + d, key})
					s.Post(sendAt, func() { sendCall(g, src, dst, s.Now()+d, key, fire[dst], key) })
				}
			}
			g.Run(1 << 30)
			for d, w := range want {
				sort.Slice(w, func(i, j int) bool {
					return w[i].at < w[j].at || (w[i].at == w[j].at && w[i].key < w[j].key)
				})
				if !reflect.DeepEqual(got[d], w) {
					t.Fatalf("seed %d, %d shards, dst %d: fired %d hand-offs\n%v\nwant %d\n%v",
						seed, n, d, len(got[d]), got[d], len(w), w)
				}
			}
		}
	}
}
