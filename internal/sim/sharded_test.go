package sim

import (
	"fmt"
	"testing"
)

// shardTrace is one run's observable outcome: a per-shard event trace
// (pods plus the fabric). Per-shard traces are the right observable — the
// global interleaving across shards is not defined by the model, but every
// cross-shard effect flows through fabric state, which the traces capture
// via the shared counter values they log.
type shardTrace struct {
	fabric []string
	pods   [][]string
}

// shardScript runs the same synthetic workload on either a standalone
// engine (shards == 0) or a sharded group. The workload models the real
// system's structure: each "pod" has local timers, pods exchange
// cross-shard messages with latency >= lookahead, and a fabric ticker
// mutates shared state that pod events read.
func shardScript(t *testing.T, shards int, horizon Time) shardTrace {
	t.Helper()
	const pods = 4
	const lookahead = 3600 * Nanosecond

	var fabric *Engine
	podEng := make([]*Engine, pods)
	var group *ShardedEngine
	if shards == 0 {
		fabric = New(7)
		for i := range podEng {
			podEng[i] = fabric
		}
	} else {
		group = NewSharded(7, pods, lookahead)
		fabric = group.Fabric()
		for i := range podEng {
			podEng[i] = group.Pod(i)
		}
	}

	tr := shardTrace{pods: make([][]string, pods)}
	// Ownership contract under test (DESIGN.md §9): `shared` is mutated
	// only by fabric-scheduled events and may be read by pod events —
	// fabric-first scheduling keeps those reads serial-equivalent.
	// `ingested` is mutated by pod->fabric messages and therefore may only
	// be read by fabric events (pods reading it would observe the barrier
	// lag; the real system's equivalent is the upload pipeline, which pods
	// never read).
	shared := 0
	ingested := 0

	// Module RNG streams must agree between modes (shared root).
	rngs := make([]int64, pods)
	for i := 0; i < pods; i++ {
		rngs[i] = fabric.SubRand(fmt.Sprintf("pod/%d", i)).Int63()
	}

	fabric.Every(Millisecond, Millisecond, func() {
		shared++
		tr.fabric = append(tr.fabric, fmt.Sprintf("%d tick shared=%d ingested=%d", fabric.Now(), shared, ingested))
	})

	for i := 0; i < pods; i++ {
		i := i
		e := podEng[i]
		// Stagger periods so pods never collide on the same nanosecond
		// (same-instant cross-pod collisions can order differently in the
		// two modes; see the known limitation in DESIGN.md §13).
		period := Time(100001+13*i) + Time(rngs[i]%7)
		e.Every(period, period, func() {
			tr.pods[i] = append(tr.pods[i], fmt.Sprintf("%d local shared=%d", e.Now(), shared))
			// Cross-shard message to the next pod, latency >= lookahead.
			peer := (i + 1) % pods
			pe := podEng[peer]
			e.ScheduleOn(pe, e.Now()+lookahead+Time(i), func() {
				tr.pods[peer] = append(tr.pods[peer], fmt.Sprintf("%d recv from pod%d shared=%d", pe.Now(), i, shared))
			})
			// Message up to the fabric at the current instant (the upload
			// path). It mutates fabric-only state.
			e.ScheduleOn(fabric, e.Now(), func() {
				ingested++
				tr.fabric = append(tr.fabric, fmt.Sprintf("%d apply from pod%d ingested=%d", fabric.Now(), i, ingested))
			})
		})
	}

	if group != nil {
		group.RunUntil(horizon)
		if got := group.Now(); got != horizon {
			t.Fatalf("sharded clock = %v, want %v", got, horizon)
		}
		for i := 0; i < pods; i++ {
			if got := group.Pod(i).Now(); got != horizon {
				t.Fatalf("pod %d clock = %v, want %v", i, got, horizon)
			}
		}
	} else {
		fabric.RunUntil(horizon)
	}
	return tr
}

func diffTraces(t *testing.T, label string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s trace lengths differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s trace diverges at %d:\n  a: %s\n  b: %s", label, i, a[i], b[i])
		}
	}
}

func compareTraces(t *testing.T, a, b shardTrace) {
	t.Helper()
	if len(a.fabric) == 0 {
		t.Fatal("workload produced no fabric events")
	}
	diffTraces(t, "fabric", a.fabric, b.fabric)
	for i := range a.pods {
		if len(a.pods[i]) == 0 {
			t.Fatalf("pod %d produced no events", i)
		}
		diffTraces(t, fmt.Sprintf("pod %d", i), a.pods[i], b.pods[i])
	}
}

// TestShardedMatchesSerial is the engine-level bit-determinism check: the
// sharded group must produce exactly the serial engine's execution traces.
func TestShardedMatchesSerial(t *testing.T) {
	horizon := 50 * Millisecond
	compareTraces(t, shardScript(t, 0, horizon), shardScript(t, 4, horizon))
}

// TestShardedRepeatable runs the sharded workload twice (exercising the
// parallel window path) and requires identical traces.
func TestShardedRepeatable(t *testing.T) {
	horizon := 50 * Millisecond
	compareTraces(t, shardScript(t, 4, horizon), shardScript(t, 4, horizon))
}

// TestShardedSerialModeMatches checks the Serial=true escape hatch (used
// by benchmarks to isolate barrier overhead) against parallel execution.
func TestShardedSerialModeMatches(t *testing.T) {
	run := func(serialWindows bool) uint64 {
		g := NewSharded(11, 4, Microsecond)
		g.Serial = serialWindows
		for i := 0; i < 4; i++ {
			e := g.Pod(i)
			e.Every(Time(100+i), Time(100+i), func() {})
		}
		g.RunUntil(Millisecond)
		return g.Fired()
	}
	if a, b := run(true), run(false); a != b {
		t.Fatalf("serial windows fired %d, parallel fired %d", a, b)
	}
}

// TestShardedCausalityPanic: a cross-shard event landing before the
// destination clock is a lookahead bug and must panic loudly, not corrupt
// the timeline silently.
func TestShardedCausalityPanic(t *testing.T) {
	g := NewSharded(3, 2, 10*Microsecond) // lookahead overstated on purpose
	g.Serial = true                       // panic must surface on this goroutine
	g.Pod(0).Every(Microsecond, Microsecond, func() {
		// Claims to honor a 10µs lookahead but sends at +1ns.
		g.Pod(0).ScheduleOn(g.Pod(1), g.Pod(0).Now()+1, func() {})
	})
	g.Pod(1).Every(Microsecond, Microsecond, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected causality panic")
		}
	}()
	g.RunUntil(100 * Microsecond)
}
