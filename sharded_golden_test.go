// Sharded-engine golden test: the pod-sharded parallel engine must be an
// implementation detail — the same seeded scenario run with Shards=1 and
// Shards=4 must produce bit-identical WindowReport sequences, and both
// must match the digest pinned in testdata/ (regardless of GOMAXPROCS;
// the Makefile's determinism target runs this at GOMAXPROCS=1 and 8).
package rpingmesh_test

import (
	"encoding/json"
	"os"
	"testing"

	"rpingmesh/internal/core"
	"rpingmesh/internal/faultgen"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

const shardedGoldenPath = "testdata/sharded_golden.json"

// runShardedScenario drives a 4-pod fabric through a cross-pod fault mix
// with the given shard count and returns the report digest.
func runShardedScenario(t testing.TB, shards int) string {
	t.Helper()
	return digestReports(shardedScenario(t, shards).Analyzer.Reports())
}

// shardedScenario runs the sharded golden scenario to completion and
// returns the finished cluster.
func shardedScenario(t testing.TB, shards int) *core.Cluster {
	t.Helper()
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 4, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2,
		HostsPerToR: 2, RNICsPerHost: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCluster(core.Config{Topology: tp, Seed: 909, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if shards > 1 && c.Shards() != shards {
		t.Fatalf("cluster runs %d shards, want %d", c.Shards(), shards)
	}
	c.StartAgents()
	c.Run(30 * sim.Second)

	in := faultgen.NewInjector(c, 91)
	horizon := 6 * sim.Minute
	sched := in.GenerateSchedule(faultgen.ScheduleConfig{
		Duration: horizon,
		EventsPerHour: map[faultgen.Cause]float64{
			faultgen.FlappingPort:     20,
			faultgen.PacketCorruption: 20,
			faultgen.RNICDown:         10,
			faultgen.PFCDeadlock:      10,
		},
		MeanFaultDuration: 50 * sim.Second,
	})
	in.Play(sched)
	c.Run(horizon + sim.Minute)
	return c
}

func TestShardedGoldenEquivalence(t *testing.T) {
	serial := runShardedScenario(t, 1)
	sharded := runShardedScenario(t, 4)
	if serial != sharded {
		t.Fatalf("Shards=4 diverged from Shards=1:\n serial  %s\n sharded %s", serial, sharded)
	}

	if *updateGolden {
		data, _ := json.MarshalIndent(map[string]string{"sharded4pod": serial}, "", "  ")
		if err := os.WriteFile(shardedGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(shardedGoldenPath)
	if err != nil {
		t.Fatalf("sharded golden missing (run with -update-golden): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt %s: %v", shardedGoldenPath, err)
	}
	if serial != want["sharded4pod"] {
		t.Fatalf("digest diverged from pinned golden\n got %s\nwant %s", serial, want["sharded4pod"])
	}
}
