//go:build !chaosbreak

package chaos

import (
	"strings"
	"testing"

	"rpingmesh/internal/pipeline"
	"rpingmesh/internal/sim"
)

func mustRun(t *testing.T, sc Scenario) *Result {
	t.Helper()
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("Run(%+v): %v", sc, err)
	}
	return res
}

func assertGreen(t *testing.T, res *Result) {
	t.Helper()
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Failed() {
		t.Fatalf("scenario failed; repro: rpmesh-soak %s", res.Scenario.ReproArgs())
	}
}

// TestScenarioGreen: the full chaos gauntlet — every action kind against
// a healthy stack — produces zero invariant violations.
func TestScenarioGreen(t *testing.T) {
	res := mustRun(t, Scenario{Seed: 1})
	assertGreen(t, res)
	if res.Windows != 10 { // 8 chaos + 2 recovery
		t.Fatalf("observed %d windows, want 10", res.Windows)
	}
	if len(res.Events) == 0 {
		t.Fatal("no chaos events were scheduled")
	}
	// Every enabled kind must have been exercised at least once.
	seen := map[Kind]bool{}
	for _, ev := range res.Events {
		seen[ev.Kind] = true
	}
	for _, k := range AllKinds() {
		if !seen[k] {
			t.Errorf("kind %s never scheduled", k)
		}
	}
}

// TestDeterminism: the same Scenario replayed produces a bit-identical
// fingerprint and violation list — the property every repro line relies
// on.
func TestDeterminism(t *testing.T) {
	sc := Scenario{Seed: 42, Windows: 6}
	a := mustRun(t, sc)
	b := mustRun(t, sc)
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints diverge:\n  a: %s\n  b: %s", a.Fingerprint, b.Fingerprint)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts diverge: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d diverges: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
}

// TestShardedScenario: the full chaos gauntlet on the pod-sharded
// parallel engine stays green, and a replay of the same sharded
// Scenario is bit-identical — chaos actions and the invariant suite are
// deterministic regardless of how many pods run concurrently.
func TestShardedScenario(t *testing.T) {
	sc := Scenario{Seed: 5, Windows: 6, Shards: 2}
	a := mustRun(t, sc)
	assertGreen(t, a)
	b := mustRun(t, sc)
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("sharded fingerprints diverge:\n  a: %s\n  b: %s", a.Fingerprint, b.Fingerprint)
	}
}

// TestShardedScenarioFourShards: the soak path at -shards=4 — wider
// adaptive lookahead epochs over more concurrent pods — stays green,
// replays bit-identically, and produces the exact same fingerprint with
// adaptive widening/elision enabled (default) and disabled (ShardEpoch=1,
// classic lockstep): the coordination schedule must never leak into
// results. Name intentionally extends TestShardedScenario so the
// determinism gate's -run regex covers it at GOMAXPROCS 1 and 8.
func TestShardedScenarioFourShards(t *testing.T) {
	sc := Scenario{Seed: 9, Windows: 6, Shards: 4}
	a := mustRun(t, sc)
	assertGreen(t, a)
	b := mustRun(t, sc)
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("4-shard fingerprints diverge:\n  a: %s\n  b: %s", a.Fingerprint, b.Fingerprint)
	}
	lock := sc
	lock.ShardEpoch = 1
	c := mustRun(t, lock)
	if a.Fingerprint != c.Fingerprint {
		t.Fatalf("adaptive vs lockstep fingerprints diverge:\n  adaptive: %s\n  lockstep: %s", a.Fingerprint, c.Fingerprint)
	}
}

// TestWireScenario: chaos over the real loopback-TCP control plane,
// including WireSever, stays green — clients redial severed sessions
// transparently.
func TestWireScenario(t *testing.T) {
	res := mustRun(t, Scenario{Seed: 3, Windows: 6, Wire: true})
	assertGreen(t, res)
}

// TestNetworkFaultComposition: faultgen's network root causes running
// underneath the monitoring-stack chaos — the hardest regime — still
// violates nothing.
func TestNetworkFaultComposition(t *testing.T) {
	res := mustRun(t, Scenario{Seed: 7, Windows: 6, NetworkFaults: true})
	assertGreen(t, res)
}

// TestFloodEngagesEachPolicy: PipelineFlood genuinely forces each
// overload policy to act — accounting stays exact while batches are
// actually dropped (or producers actually wait).
func TestFloodEngagesEachPolicy(t *testing.T) {
	for _, pol := range []pipeline.Policy{pipeline.Block, pipeline.DropOldest, pipeline.DropNewest} {
		t.Run(pol.String(), func(t *testing.T) {
			res := mustRun(t, Scenario{
				Seed: 11, Windows: 6,
				Kinds:  []Kind{PipelineFlood},
				Policy: pol,
			})
			assertGreen(t, res)
			st := res.Pipeline
			switch pol {
			case pipeline.Block:
				if st.BlockWaits == 0 {
					t.Error("flood under Block never made a producer wait")
				}
				if st.Dropped() != 0 {
					t.Errorf("Block dropped %d batches; must drop none", st.Dropped())
				}
			case pipeline.DropOldest:
				if st.DroppedOldest == 0 {
					t.Error("flood under DropOldest never shed the queue head")
				}
			case pipeline.DropNewest:
				if st.DroppedNewest == 0 {
					t.Error("flood under DropNewest never rejected a batch")
				}
			}
		})
	}
}

// TestKindStreamIndependence: disabling one kind leaves every other
// kind's timeline untouched — the property greedy repro minimization
// depends on.
func TestKindStreamIndependence(t *testing.T) {
	window := 20 * sim.Second
	full := Scenario{Seed: 5}
	full.setDefaults()
	all := generate(&full, window)

	shrunk := Scenario{Seed: 5, Kinds: []Kind{AgentCrash, ClockSkew}}
	shrunk.setDefaults()
	sub := generate(&shrunk, window)

	var want []Event
	for _, ev := range all {
		if ev.Kind == AgentCrash || ev.Kind == ClockSkew {
			want = append(want, ev)
		}
	}
	if len(sub) != len(want) {
		t.Fatalf("shrunk timeline has %d events, want %d", len(sub), len(want))
	}
	for i := range sub {
		if sub[i] != want[i] {
			t.Fatalf("event %d reshuffled after shrink: %+v vs %+v", i, sub[i], want[i])
		}
	}
}

func TestParseKinds(t *testing.T) {
	for _, s := range []string{"", "all"} {
		ks, err := ParseKinds(s)
		if err != nil || len(ks) != int(NumKinds) {
			t.Fatalf("ParseKinds(%q) = %v, %v", s, ks, err)
		}
	}
	ks, err := ParseKinds("clock-skew, agent-crash")
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatKinds(ks); got != "agent-crash,clock-skew" {
		t.Fatalf("FormatKinds = %q", got)
	}
	if _, err := ParseKinds("bogus"); err == nil {
		t.Fatal("ParseKinds accepted an unknown kind")
	}
}

// TestReproArgs: the repro line round-trips the scenario's knobs.
func TestReproArgs(t *testing.T) {
	sc := Scenario{Seed: 9, Wire: true, NetworkFaults: true, Policy: pipeline.DropOldest, APIReaders: 64}
	sc.setDefaults()
	line := sc.ReproArgs()
	for _, frag := range []string{"-seed 9", "-windows 8", "-policy drop-oldest", "-wire", "-net-faults", "-api-readers 64"} {
		if !strings.Contains(line, frag) {
			t.Errorf("repro line %q missing %q", line, frag)
		}
	}
	if strings.Contains(Scenario{Seed: 9}.ReproArgs(), "api-readers") {
		t.Error("repro line mentions api-readers with none configured")
	}
}

// TestAPIReadersScenarioGreen: a reader fleet hammering the ops console
// (long-poll + SSE) while chaos runs must not trip any invariant — and,
// because readers only read, must not perturb the fingerprint either.
func TestAPIReadersScenarioGreen(t *testing.T) {
	quiet := mustRun(t, Scenario{Seed: 11})
	loud := mustRun(t, Scenario{Seed: 11, APIReaders: 50})
	assertGreen(t, loud)
	if quiet.Fingerprint != loud.Fingerprint {
		t.Fatalf("readers perturbed the run:\n  quiet: %s\n  loud:  %s",
			quiet.Fingerprint, loud.Fingerprint)
	}
}
