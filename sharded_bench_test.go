// BenchmarkEngineSharded measures the wall-clock payoff of the
// pod-sharded parallel engine (DESIGN.md §9) on a 4-pod / 256-host
// fabric: the same seeded workload advanced one virtual second per
// iteration, serial vs sharded. Results are bit-identical across shard
// counts (TestShardedGoldenEquivalence); this bench exists purely to
// show the speedup, and EXPERIMENTS.md records the measured scaling.
//
// PropDelay is raised to 50µs so the conservative lookahead windows
// (MinCrossPathLinks × PropDelay) are wide enough to amortize the
// per-window barrier — mirroring the long-haul regime where parallel
// simulation pays off most.
package rpingmesh_test

import (
	"fmt"
	"testing"

	"rpingmesh/internal/core"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/simnet"
	"rpingmesh/internal/topo"
)

func benchCluster(b *testing.B, shards int) *core.Cluster {
	b.Helper()
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 4, ToRsPerPod: 8, AggsPerPod: 2, Spines: 4,
		HostsPerToR: 8, RNICsPerHost: 1, // 4×8×8 = 256 hosts
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.NewCluster(core.Config{
		Topology: tp, Seed: 1234, Shards: shards,
		Net: simnet.Config{PropDelay: 50 * sim.Microsecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	if shards > 1 && c.Shards() != shards {
		b.Fatalf("cluster runs %d shards, want %d", c.Shards(), shards)
	}
	c.StartAgents()
	return c
}

func BenchmarkEngineSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := benchCluster(b, shards)
			c.Run(sim.Second) // warm-up: fill inflight tables, first uploads
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Run(sim.Second)
			}
		})
	}
}
