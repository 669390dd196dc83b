package sim

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks for the scheduler hot paths. BenchmarkPostPop is the
// per-event cost budget the fabric hot path pays (one schedule + one
// pop); it must report 0 allocs/op — the event node pool and monomorphic
// fnArg handlers exist precisely so steady state allocates nothing.

func BenchmarkPostPop(b *testing.B) {
	s := New()
	fn := func(any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PostArg(s.Now()+Time(i%512), fn, nil)
		if s.Pending() > 1024 {
			s.Run(s.Now() + 256)
		}
	}
	s.RunAll()
}

// BenchmarkTimerChurn is the RTO pattern: arm a cancellable timer far
// out, cancel it before it fires, re-arm. Dead-timer reclamation keeps
// this from polluting the queue.
func BenchmarkTimerChurn(b *testing.B) {
	s := New()
	fn := func() {}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	var tm Timer
	for i := 0; i < b.N; i++ {
		tm.Stop()
		tm = s.At(s.Now()+Time(1000+rng.Intn(100_000)), fn)
		if i%8 == 0 {
			s.Post(s.Now()+Time(rng.Intn(64)), fn)
			s.Run(s.Now() + 32)
		}
	}
	tm.Stop()
	s.RunAll()
}

// BenchmarkWheelFarTimers schedules past the wheel span so every event
// lands in the overflow heap and must be promoted across a window
// boundary before firing — the worst case for the hierarchy.
func BenchmarkWheelFarTimers(b *testing.B) {
	s := New()
	fn := func() {}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Post(s.Now()+Time(wheelSpan)+Time(rng.Int63n(int64(wheelSpan))), fn)
		if s.Pending() > 4096 {
			s.RunAll()
		}
	}
	s.RunAll()
}

// nopKind is a hand-off whose handler does nothing, so
// BenchmarkGroupInject times the barrier, not the model.
var nopKind = NewKind(func(_, _ any) {})

// BenchmarkGroupInject is one PDES window barrier at the hand-off
// traffic of the sharded k=8 fat-tree scale sweep: 2 shards, each
// sending ~1k hand-offs to itself and ~1k to the other per window (every
// fat-tree switch↔switch wire goes through the mailbox, so self traffic
// is as heavy as cross traffic). Every source delivers at send time +
// the lookahead, pairs of wires deliver at the same instant with keys
// out of order, and both sources' runs to a destination interleave
// tie for tie. One op sends the window's hand-offs, injects them and
// fires them; steady state must allocate nothing.
func BenchmarkGroupInject(b *testing.B) {
	const (
		shards  = 2
		la      = Time(1000)
		perPair = 1000 // hand-offs per (src, dst) pair per window
		wires   = 16   // wires per (src, dst) pair
	)
	g := NewGroup(shards, la)
	pkt := new(int) // stands in for the pooled packet a wire hands off
	seq := make([]uint32, shards*shards*wires)
	base := Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for src := 0; src < shards; src++ {
			for dst := 0; dst < shards; dst++ {
				for j := 0; j < perPair; j++ {
					w := (src*shards+dst)*wires + wires - 1 - j%wires
					seq[w]++
					key := uint64(w)<<32 | uint64(seq[w])
					g.SendKind(src, dst, base+la+Time(j/2*2), key, nopKind, 0, pkt)
				}
			}
		}
		g.inject()
		for _, s := range g.shards {
			s.Run(base + 2*la)
		}
		base += la
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shards*shards*perPair), "ns/handoff")
}
