// Command rpmesh-soak runs seeded chaos scenarios against the full
// monitoring stack under a wall-clock budget. Each scenario shakes the
// stack (agent crashes, wire severs, pipeline floods, reader stalls,
// clock skew — optionally with faultgen network faults underneath) while
// the invariant suite audits every analysis window. Every fifth scenario
// targets the federated control plane instead: node partitions,
// coordinator kills mid-window and vote delays against a 3-node quorum,
// audited by the federation invariants (log agreement, vote
// conservation, liveness, single-commit). On any violation the
// driver greedily minimizes the scenario (drop chaos kinds, halve the
// horizon — per-kind PRNG streams keep surviving timelines stable) and
// exits non-zero with a copy-pasteable repro line.
//
// CI runs `make soak`; `make soak-selftest` proves the suite catches a
// deliberately broken invariant (-tags chaosbreak).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/chaos"
	"rpingmesh/internal/pipeline"
)

func main() {
	var (
		scenarios  = flag.Int("scenarios", 5, "number of seeded scenarios to run")
		seed       = flag.Int64("seed", 1, "base seed; scenario i uses seed+i")
		windows    = flag.Int("windows", 8, "analysis windows of chaos per scenario")
		budget     = flag.Duration("budget", 100*time.Second, "wall-clock budget incl. minimization")
		kindsFlag  = flag.String("kinds", "all", "chaos kinds (comma-separated; 'all')")
		polFlag    = flag.String("policy", "", "pipeline overload policy for every scenario (block,drop-oldest,drop-newest); default rotates")
		wire       = flag.Bool("wire", false, "force the loopback-TCP control plane on every scenario (default alternates)")
		netFaults  = flag.Bool("net-faults", false, "force faultgen network faults on every scenario (default every third)")
		shards     = flag.Int("shards", 0, "force the pod-sharded parallel engine with N shards on every scenario (default alternates serial, 2-shard and 4-shard)")
		shardEpoch = flag.Int("shard-epoch", 0, "force the sharded engine's adaptive-epoch cap on every scenario (1 = classic lockstep, elision off; default alternates adaptive and lockstep)")
		fedNodes   = flag.Int("fed-nodes", 0, "force a federated deployment with N nodes on every scenario (default: every fifth scenario runs 3-node)")
		qosClasses = flag.Int("qos-classes", 0, "force an N-class QoS fabric on every scenario (default: every fourth scenario runs 4-class)")
		qosFault   = flag.String("qos-fault", "", "force one QoS fault family on every QoS scenario ("+shortQoSFaults()+"; default rotates)")
		localizer  = flag.String("localizer", "", "force the switch localizer (alg1,007) on every scenario (default alternates on QoS scenarios)")
		apiReaders = flag.Int("api-readers", 0, "concurrent ops-console readers (long-poll + SSE) hammering every scenario's API (default: every second scenario runs 32)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		verbose    = flag.Bool("v", false, "per-scenario detail")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// fail() exits via os.Exit, which skips defers — flushProfiles
		// runs on both the green and the violation path.
		prev := flushProfiles
		flushProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
			prev()
		}
	}
	if *memProfile != "" {
		prev := flushProfiles
		path := *memProfile
		flushProfiles = func() {
			writeHeapProfile(path)
			prev()
		}
	}
	defer flushProfiles()

	kinds, err := chaos.ParseKinds(*kindsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var fixedPolicy pipeline.Policy
	if *polFlag != "" {
		fixedPolicy, err = pipeline.ParsePolicy(*polFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "-policy:", err)
			os.Exit(2)
		}
	}
	parsedQoSFault, err := chaos.ParseQoSFault(*qosFault)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := analyzer.CheckLocalizer(*localizer); err != nil {
		fmt.Fprintln(os.Stderr, "-localizer:", err)
		os.Exit(2)
	}
	// Flags the user pinned apply to every scenario; the rest rotate so a
	// default run covers all three overload policies and both transports.
	pinned := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { pinned[f.Name] = true })

	deadline := time.Now().Add(*budget)
	start := time.Now()
	ran := 0
	for i := 0; i < *scenarios; i++ {
		if time.Now().After(deadline) {
			fmt.Printf("budget exhausted after %d/%d scenarios (%.1fs)\n",
				ran, *scenarios, time.Since(start).Seconds())
			break
		}
		sc := chaos.Scenario{
			Seed:    *seed + int64(i),
			Windows: *windows,
			Kinds:   kinds,
			// Rotation: i%3 walks block → drop-oldest → drop-newest, so
			// scenario 1 exercises drop-oldest (what the chaosbreak
			// selftest sabotages) even in a two-scenario run.
			Policy:        pipeline.Policy(i % 3),
			Wire:          i%2 == 1,
			NetworkFaults: i%3 == 2,
		}
		// Odd scenarios run the pod-sharded parallel engine so the soak
		// continuously exercises cross-shard scheduling under chaos,
		// alternating 2- and 4-shard fabrics and alternating the adaptive
		// epoch/elision machinery against classic lockstep — both
		// coordination schedules must produce identical physics.
		if i%2 == 1 {
			sc.Shards = 2 + 2*((i/2)%2)
			// Period 3 against the shard count's period 2, so every
			// (shards, epoch) combination appears in a long run.
			if (i/2)%3 == 1 {
				sc.ShardEpoch = 1
			}
		}
		// Every fifth scenario runs the federated control plane, so a
		// default run always includes node partitions, coordinator kills
		// mid-window, and vote delays against a 3-node quorum.
		if i%5 == 3 {
			sc.FedNodes = 3
		}
		// Every fourth scenario runs a 4-class lossless fabric with one
		// QoS fault family (rotating through pfc-storm, dscp-mismap,
		// cnp-starve, incast) and alternates the switch localizer, starting
		// with 007, so PFC pause propagation and 007 voting soak
		// continuously (scenario 2 is the first of them).
		if i%4 == 2 {
			faults := chaos.QoSFaultKinds()
			sc.QoSClasses = 4
			sc.QoSFault = faults[(i/4)%len(faults)]
			if (i/4)%2 == 0 {
				sc.Localizer = "007"
			}
		}
		if pinned["policy"] {
			sc.Policy = fixedPolicy
		}
		if pinned["wire"] {
			sc.Wire = *wire
		}
		if pinned["net-faults"] {
			sc.NetworkFaults = *netFaults
		}
		if pinned["shards"] {
			sc.Shards = *shards
		}
		if pinned["shard-epoch"] {
			sc.ShardEpoch = *shardEpoch
		}
		if pinned["fed-nodes"] {
			sc.FedNodes = *fedNodes
		}
		if pinned["qos-classes"] {
			sc.QoSClasses = *qosClasses
		}
		if pinned["qos-fault"] {
			sc.QoSFault = parsedQoSFault
			if sc.QoSClasses <= 1 {
				sc.QoSClasses = 4
			}
		}
		if pinned["localizer"] {
			sc.Localizer = *localizer
		}
		// Every second scenario runs a reader fleet against the console so
		// the streaming tier's shutdown-drain and shed accounting soak
		// continuously; -api-readers pins the fleet size for every run.
		if i%2 == 0 {
			sc.APIReaders = 32
		}
		if pinned["api-readers"] {
			sc.APIReaders = *apiReaders
		}

		res, err := chaos.Run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario %d (seed %d): harness error: %v\n", i, sc.Seed, err)
			os.Exit(2)
		}
		ran++
		status := "ok"
		if res.Failed() {
			status = fmt.Sprintf("FAIL (%d violations)", len(res.Violations))
		}
		qosNote := ""
		if sc.QoSClasses > 1 {
			qosNote = fmt.Sprintf(" qos=%d/%s", sc.QoSClasses, sc.QoSFault)
		}
		if sc.Localizer != "" {
			qosNote += " localizer=" + sc.Localizer
		}
		epochNote := ""
		if sc.Shards > 1 && sc.ShardEpoch > 0 {
			epochNote = fmt.Sprintf("/epoch=%d", sc.ShardEpoch)
		}
		if sc.APIReaders > 0 {
			qosNote += fmt.Sprintf(" readers=%d", sc.APIReaders)
		}
		fmt.Printf("scenario %d seed=%d policy=%s wire=%v net-faults=%v shards=%d%s fed=%d%s events=%d windows=%d drops=%d shed=%d waits=%d: %s\n",
			i, sc.Seed, sc.Policy, sc.Wire, sc.NetworkFaults, sc.Shards, epochNote, sc.FedNodes, qosNote,
			len(res.Events), res.Windows,
			res.Pipeline.Dropped(), res.Pipeline.ResultsShed, res.Pipeline.BlockWaits, status)
		if len(res.LeaderHistory) > 0 && *verbose {
			fmt.Printf("  leaders: %s\n", leaderLine(res.LeaderHistory))
		}
		if *verbose {
			fmt.Printf("  fingerprint: %s\n", res.Fingerprint)
		}
		if res.Failed() {
			fail(res, deadline)
		}
	}
	fmt.Printf("soak: %d scenarios green in %.1fs\n", ran, time.Since(start).Seconds())
}

// shortQoSFaults renders the QoS fault family names for flag help.
func shortQoSFaults() string { return strings.Join(chaos.QoSFaultKinds(), ",") }

// leaderLine renders a federated run's per-window committing leader
// (-1: no commit that window).
func leaderLine(hist []int) string {
	out := make([]byte, 0, 2*len(hist))
	for i, l := range hist {
		if i > 0 {
			out = append(out, ',')
		}
		out = fmt.Appendf(out, "%d", l)
	}
	return string(out)
}

// flushProfiles stops/writes any requested pprof profiles; main chains
// the real work in. A package var because fail() leaves via os.Exit.
var flushProfiles = func() {}

// writeHeapProfile snapshots the heap to path (after a GC so the
// profile reflects live objects, not garbage awaiting collection).
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// fail reports the violations, minimizes the scenario within the
// remaining budget, prints the repro line, and exits non-zero.
func fail(res *chaos.Result, deadline time.Time) {
	for _, v := range res.Violations {
		fmt.Printf("  %s\n", v)
	}
	min := minimize(res.Scenario, deadline)
	fmt.Printf("\nminimized repro:\n  rpmesh-soak %s\n", min.ReproArgs())
	if len(res.LeaderHistory) > 0 {
		// Which node committed each window: the first thing a federation
		// failure post-mortem wants next to the repro.
		fmt.Printf("  elected-leader history: %s\n", leaderLine(res.LeaderHistory))
	}
	flushProfiles()
	os.Exit(1)
}

// stillFails re-runs a candidate scenario and reports whether any
// invariant still trips. Harness errors count as not-reproducing so
// minimization never walks into a configuration that cannot run.
func stillFails(sc chaos.Scenario) bool {
	res, err := chaos.Run(sc)
	return err == nil && res.Failed()
}

// minimize greedily shrinks a failing scenario: first drop chaos kinds
// one at a time (per-kind PRNG streams guarantee the surviving kinds'
// timelines are unchanged, so removals compose), then halve the horizon
// while the failure persists. Bounded by the soak budget's deadline.
func minimize(sc chaos.Scenario, deadline time.Time) chaos.Scenario {
	best := sc
	kinds := append([]chaos.Kind(nil), best.Kinds...)
	for _, drop := range kinds {
		if time.Now().After(deadline) {
			return best
		}
		var keep []chaos.Kind
		for _, k := range best.Kinds {
			if k != drop {
				keep = append(keep, k)
			}
		}
		if len(keep) == 0 {
			continue
		}
		cand := best
		cand.Kinds = keep
		if stillFails(cand) {
			best = cand
		}
	}
	for best.Windows > 2 && !time.Now().After(deadline) {
		cand := best
		cand.Windows = best.Windows / 2
		if !stillFails(cand) {
			break
		}
		best = cand
	}
	return best
}
