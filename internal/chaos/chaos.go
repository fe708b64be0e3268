// Package chaos turns the monitoring stack itself into the system under
// test. internal/faultgen injects Table 2's fourteen *network* root
// causes; this package injects failures of the *measurement system* —
// agents crashing and restarting mid-window, management-network (wire)
// sessions severed under the Controller, the ingest pipeline saturated
// until its overload policy engages, console readers stalling the alert
// and tsdb tiers, and per-host clocks stepping underneath in-flight
// probes. The premise follows 007 (Arzani et al.) and the paper's own
// deployment story: a monitoring system's availability and accounting
// must be verified continuously, in exactly the regimes where it is most
// needed.
//
// Everything is seeded and deterministic: chaos events ride the same
// discrete-event engine as the fabric simulation, each action kind draws
// from its own PRNG stream (so removing one kind during repro
// minimization does not reshuffle the others), and a scenario replayed
// with the same Scenario produces bit-identical results.
//
// After every analysis window closes and folds into the incident engine
// (core.Cluster.OnWindow), the Invariants suite audits the stack:
// pipeline drop accounting exact to the batch, analyzer window sequence
// numbers gapless, no (entity, class) ever open twice in the incident
// engine, tsdb tier seams consistent, the ops API always answering
// /healthz. At scenario end the harness additionally checks recovery,
// goroutine counts, and (on Linux) file-descriptor counts.
//
// cmd/rpmesh-soak drives N seeded scenarios under a wall-clock budget
// and exits non-zero with a minimized repro on any violation.
package chaos

import (
	"fmt"
	"sort"
	"strings"

	"rpingmesh/internal/pipeline"
	"rpingmesh/internal/sim"
)

// Kind enumerates the monitoring-stack fault actions.
type Kind int

const (
	// AgentCrash stops a host's Agent mid-window (QPs destroyed, uploads
	// cease — the restart re-registers with fresh QPNs, the §4.3.1 noise
	// source) and restarts it after the event duration.
	AgentCrash Kind = iota
	// WireSever closes every live Agent↔Controller TCP session; clients
	// must transparently redial (§4.1's Controller-restart story). Only
	// meaningful when the scenario runs the wire transport.
	WireSever
	// PipelineFlood bursts batches into the ingest pipeline faster than
	// one partition can admit them, forcing the configured overload
	// policy (block / drop-oldest / drop-newest) to engage for real.
	PipelineFlood
	// ReaderStall models slow console consumers: a notifier that grinds
	// through full-horizon tsdb scans inside the alert engine's critical
	// section, plus heavy API/tsdb queries every second.
	ReaderStall
	// ClockSkew steps a host's CPU clock and all its device clocks to
	// new random offsets mid-run (NTP step / VM migration), and steps
	// them again when the event ends.
	ClockSkew
	// NodePartition isolates one federation node from every peer: its
	// cluster keeps probing and voting into the outbox, reconciling on
	// heal. Only meaningful when Scenario.FedNodes > 1.
	NodePartition
	// CoordinatorKill takes the current federation leader's coordination
	// process down mid-window, forcing a failover, and revives it later
	// (failback once a round-log replay catches it up). FedNodes > 1 only.
	CoordinatorKill
	// VoteDelay withholds one federation node's vote deliveries while
	// letting everything else flow — the arrival-interleaving knob the
	// determinism invariant exercises. FedNodes > 1 only.
	VoteDelay

	// NumKinds counts the action kinds.
	NumKinds
)

func (k Kind) String() string {
	switch k {
	case AgentCrash:
		return "agent-crash"
	case WireSever:
		return "wire-sever"
	case PipelineFlood:
		return "pipeline-flood"
	case ReaderStall:
		return "reader-stall"
	case ClockSkew:
		return "clock-skew"
	case NodePartition:
		return "node-partition"
	case CoordinatorKill:
		return "coordinator-kill"
	case VoteDelay:
		return "vote-delay"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// AllKinds returns every action kind.
func AllKinds() []Kind {
	out := make([]Kind, NumKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// ParseKinds parses a comma-separated kind list ("agent-crash,clock-skew");
// empty and "all" mean every kind.
func ParseKinds(s string) ([]Kind, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return AllKinds(), nil
	}
	var out []Kind
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, k := range AllKinds() {
			if k.String() == name {
				out = append(out, k)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("chaos: unknown kind %q (want %s)", name, KindNames())
		}
	}
	return out, nil
}

// KindNames renders every kind name, comma-separated.
func KindNames() string {
	names := make([]string, NumKinds)
	for i, k := range AllKinds() {
		names[i] = k.String()
	}
	return strings.Join(names, ",")
}

// FormatKinds renders a kind set as a canonical (sorted, deduplicated)
// comma-separated list — the form repro command lines use.
func FormatKinds(kinds []Kind) string {
	set := map[Kind]bool{}
	for _, k := range kinds {
		set[k] = true
	}
	ordered := make([]Kind, 0, len(set))
	for _, k := range AllKinds() {
		if set[k] {
			ordered = append(ordered, k)
		}
	}
	names := make([]string, len(ordered))
	for i, k := range ordered {
		names[i] = k.String()
	}
	return strings.Join(names, ",")
}

// Event is one scheduled chaos action: applied at At, unwound (restart,
// reconnect, flood stop, …) after Duration.
type Event struct {
	At       sim.Time
	Duration sim.Time
	Kind     Kind
}

// Scenario configures one seeded chaos run. The zero value of every
// field takes a default; Seed alone fully determines the outcome.
type Scenario struct {
	// Seed drives the cluster simulation AND every chaos stream.
	Seed int64
	// Windows is how many 20 s analysis windows the scenario spans
	// before the recovery phase (default 8).
	Windows int
	// RecoveryWindows run after all chaos unwinds, so end-of-run
	// invariants check a system that had time to heal (default 2).
	RecoveryWindows int
	// Kinds enables a subset of chaos actions (default: all).
	Kinds []Kind
	// Policy is the ingest pipeline's overload policy under flood.
	Policy pipeline.Policy
	// Capacity bounds each pipeline partition (default 64 — small
	// enough that PipelineFlood actually overflows it).
	Capacity int
	// Wire runs the Agent↔Controller control plane over real loopback
	// TCP (wire.Server/Client), making WireSever meaningful.
	Wire bool
	// NetworkFaults composes a faultgen schedule underneath the chaos —
	// the fabric misbehaves at the same time as the monitoring stack.
	NetworkFaults bool
	// HostsPerToR sizes the topology (default 2; 1 pod × 2 ToRs).
	HostsPerToR int
	// Shards > 1 builds a Shards-pod topology and runs the cluster on the
	// pod-sharded parallel engine (core.Config.Shards). Results stay a
	// pure function of the scenario; sharding is exercised for races and
	// determinism, not different behavior.
	Shards int
	// ShardEpoch caps the sharded engine's adaptive lookahead widening
	// (core.Config.ShardEpoch): 0 default, 1 classic lockstep with
	// barrier elision off. Rotated by the soak harness so both the
	// widened and lockstep coordination paths run under chaos, which must
	// never change a fingerprint.
	ShardEpoch int
	// FedNodes > 1 runs the scenario against a federated deployment
	// (fed.Deploy): FedNodes peer nodes with quorum incident
	// confirmation, chaos drawn from the federation kinds
	// (node-partition, coordinator-kill, vote-delay), and the federation
	// invariant suite instead of the single-cluster one.
	FedNodes int
	// QoSClasses > 1 runs the fabric with that many per-priority queues
	// (qos.Profile); 0/1 keeps the single-class legacy fabric.
	QoSClasses int
	// QoSFault plays one QoS fault family (QoSFaultKinds) underneath the
	// monitoring chaos. Requires QoSClasses > 1.
	QoSFault string
	// Localizer selects the Analyzer's switch-localization stage
	// ("alg1" default, "007" democratic voting).
	Localizer string
	// APIReaders > 0 hammers the ops console concurrently with the run:
	// that many reader goroutines loop over point queries and long-poll
	// stream requests in-process, plus up to 16 real SSE sockets over a
	// live listener. Readers only read — fingerprints are unaffected —
	// but every one must drain cleanly through Shutdown before the
	// end-of-run leak checks.
	APIReaders int
}

func (sc *Scenario) setDefaults() {
	if sc.Windows <= 0 {
		sc.Windows = 8
	}
	if sc.RecoveryWindows <= 0 {
		sc.RecoveryWindows = 2
	}
	if len(sc.Kinds) == 0 {
		sc.Kinds = AllKinds()
	}
	if sc.Capacity <= 0 {
		sc.Capacity = 64
	}
	if sc.HostsPerToR <= 0 {
		sc.HostsPerToR = 2
	}
}

// ReproArgs renders the scenario as rpmesh-soak flags that replay it
// exactly — the line printed next to every violation.
func (sc Scenario) ReproArgs() string {
	args := fmt.Sprintf("-seed %d -scenarios 1 -windows %d -kinds %s -policy %s",
		sc.Seed, sc.Windows, FormatKinds(sc.Kinds), sc.Policy)
	if sc.QoSClasses > 1 {
		args += fmt.Sprintf(" -qos-classes %d", sc.QoSClasses)
	}
	if sc.QoSFault != "" {
		args += fmt.Sprintf(" -qos-fault %s", sc.QoSFault)
	}
	if sc.Localizer != "" {
		args += fmt.Sprintf(" -localizer %s", sc.Localizer)
	}
	if sc.Wire {
		args += " -wire"
	}
	if sc.NetworkFaults {
		args += " -net-faults"
	}
	if sc.Shards > 1 {
		args += fmt.Sprintf(" -shards %d", sc.Shards)
	}
	if sc.ShardEpoch > 0 {
		args += fmt.Sprintf(" -shard-epoch %d", sc.ShardEpoch)
	}
	if sc.FedNodes > 1 {
		args += fmt.Sprintf(" -fed-nodes %d", sc.FedNodes)
	}
	if sc.APIReaders > 0 {
		args += fmt.Sprintf(" -api-readers %d", sc.APIReaders)
	}
	return args
}

// Violation is one invariant breach, pinned to the analysis window that
// exposed it.
type Violation struct {
	Invariant string
	Window    int
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("invariant=%s window=%d: %s", v.Invariant, v.Window, v.Detail)
}

// Result is one scenario's outcome.
type Result struct {
	Scenario   Scenario
	Events     []Event // chaos timeline actually scheduled
	Windows    int     // analysis windows observed (incl. recovery)
	Violations []Violation

	// Pipeline is the ingest tier's final counter snapshot — soak output
	// and tests read drop/shed/block activity from here.
	Pipeline pipeline.Stats

	// LeaderHistory records the committing federation leader of every
	// coordination step (-1 where no commit happened); empty for
	// non-federated scenarios. Soak repro lines print it so a failover
	// sequence can be read straight off a violation report.
	LeaderHistory []int

	// Fingerprint summarizes the run for determinism checks: two runs
	// of the same Scenario must produce identical fingerprints.
	Fingerprint string
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// sortEvents orders a timeline by (At, Kind) for deterministic playback.
func sortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Kind < events[j].Kind
	})
}
