package main

import (
	"tlt/internal/app"
	"tlt/internal/sim"
	"tlt/internal/topo"
	"tlt/internal/workload"
)

// probeReps is how many times each probe repeats its call; the probe
// reports the median, so one descheduled call does not skew it.
const probeReps = 5

// probe times the topology build and the workload generation of one
// workload's cells in this process, with one span per call. The
// returned times are per-call medians in seconds.
type probe func(seed int64, spans *spanLog, parent int) (buildS, genS float64)

// leafSpineProbe builds the 96-host leaf-spine with the given link
// delay and generates the §7.1 traffic mix at 40% load with bg
// background flows — the fig5/fig6 cell set-up.
func leafSpineProbe(delay sim.Time, bg int) probe {
	return func(seed int64, spans *spanLog, parent int) (float64, float64) {
		var build, gen []float64
		for i := 0; i < probeReps; i++ {
			g := sim.NewGroup(1, delay)
			cfg := topo.DefaultLeafSpine(delay)
			cfg.Group = g
			cfg.SeedSalt = seed
			id := spans.start("topo.LeafSpine", parent)
			topo.LeafSpine(g.Shard(0), cfg)
			build = append(build, spans.end(id))

			tr := workload.DefaultTraffic(0.4, bg)
			tr.Seed = seed + int64(i)
			id = spans.start("workload.Generate", parent)
			workload.Generate(tr, 1)
			gen = append(gen, spans.end(id))
		}
		return median(build), median(gen)
	}
}

// fatTreeProbe builds the k-ary fat-tree across shards and drains one
// cell's open-loop arrival stream — RPC fan-in from the app service
// model merged with a Poisson background stream, calibrated as the
// scale-sweep does — for requests requests at the given load.
func fatTreeProbe(k, shards, requests int, load float64) probe {
	const rateBps = 40e9
	return func(seed int64, spans *spanLog, parent int) (float64, float64) {
		var build, gen []float64
		for i := 0; i < probeReps; i++ {
			g := sim.NewGroup(shards, 10*sim.Microsecond)
			id := spans.start("topo.FatTree", parent)
			net := topo.FatTree(g.Shard(0), topo.FatTreeConfig{
				K:           k,
				LinkRateBps: rateBps,
				LinkDelay:   10 * sim.Microsecond,
				SeedSalt:    seed,
				Group:       g,
			})
			build = append(build, spans.end(id))

			hosts := len(net.Hosts)
			s := seed + int64(i)
			id = spans.start("workload.Poisson", parent)
			svc := func(gap sim.Time) *app.Service {
				return app.NewService(app.ServiceConfig{
					Hosts: hosts, Servers: hosts / 4, Keys: 4 * (hosts / 4), Replicas: 3, Skew: 1.1,
					Requests: requests, MeanGap: gap, Fanout: 4, Dist: workload.RPC, Seed: s,
				})
			}
			lam := load * rateBps / (8 * svc(0).MaxServerShare() * 4 * workload.RPC.Mean())
			gap := max(sim.Time(1e9/lam), 1)
			src := workload.MergeSources(svc(gap).Stream(), workload.NewPoisson(workload.PoissonConfig{
				Flows: requests / 20, MeanGap: gap * 20, Hosts: hosts, Dist: workload.CacheFollower, Seed: s + 500_000,
			}))
			for {
				if _, ok := src.Next(); !ok {
					break
				}
			}
			gen = append(gen, spans.end(id))
		}
		return median(build), median(gen)
	}
}
