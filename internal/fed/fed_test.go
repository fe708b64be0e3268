package fed

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rpingmesh/internal/alert"
	"rpingmesh/internal/faultgen"
	"rpingmesh/internal/topo"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with observed output")

// newTestDeploy builds the canonical 3-node test federation (Q=2, one
// pod per node).
func newTestDeploy(t *testing.T, seed int64) *Deploy {
	t.Helper()
	d, err := NewDeploy(DeployConfig{
		Fed:  Config{Nodes: 3, Quorum: 2, Secret: 0xfeed},
		Seed: seed,
	})
	if err != nil {
		t.Fatalf("NewDeploy: %v", err)
	}
	return d
}

// spineLink returns the lowest-ID agg→spine link — a fabric link that
// inter-ToR probes from every pod traverse (multi-vantage by design).
func spineLink(t *testing.T, tp *topo.Topology) topo.LinkID {
	t.Helper()
	best := topo.LinkID(-1)
	for _, l := range tp.Links {
		from, to := tp.Switches[l.From], tp.Switches[l.To]
		if from == nil || to == nil {
			continue
		}
		if from.Tier == topo.TierAgg && to.Tier == topo.TierSpine {
			if best < 0 || l.ID < best {
				best = l.ID
			}
		}
	}
	if best < 0 {
		t.Fatal("no agg→spine link in topology")
	}
	return best
}

// corrupt injects link corruption into the listed nodes' replicas. The
// set of replicas carrying the fault is the test's ground truth: all of
// them = the fault is real, one of them = a single-vantage artifact.
func corrupt(t *testing.T, d *Deploy, link topo.LinkID, sev float64, nodes ...int) []*faultgen.Injector {
	t.Helper()
	injs := make([]*faultgen.Injector, 0, len(nodes))
	for _, i := range nodes {
		in := faultgen.NewInjector(d.Node(i).Cluster, 42)
		if _, err := in.Inject(faultgen.Fault{
			Cause: faultgen.PacketCorruption, Link: link, Severity: sev,
		}); err != nil {
			t.Fatalf("inject node %d: %v", i, err)
		}
		injs = append(injs, in)
	}
	return injs
}

// watchSteps fails the test on any coordination error or double commit
// and checks vote conservation after every step.
func watchSteps(t *testing.T, d *Deploy) {
	t.Helper()
	d.OnStep(func(info StepInfo) {
		for _, e := range info.Errors {
			t.Errorf("step w%d: %s", info.Window, e)
		}
		if info.DoubleCommit {
			t.Errorf("step w%d: double commit", info.Window)
		}
		if a := d.Accounting(); !a.Balanced() {
			t.Errorf("step w%d: vote conservation broken: %v", info.Window, a)
		}
	})
}

// requireConverged asserts every replica ends on the same log and the
// same incident timeline, and that each timeline passes the alert
// engine's own invariants.
func requireConverged(t *testing.T, d *Deploy) {
	t.Helper()
	r0 := d.Node(0).Replica()
	for i := 1; i < d.Nodes(); i++ {
		r := d.Node(i).Replica()
		if r.AppliedSeq() != r0.AppliedSeq() || r.Digest() != r0.Digest() {
			t.Fatalf("replica %d at seq=%d digest=%x, replica 0 at seq=%d digest=%x",
				i, r.AppliedSeq(), r.Digest(), r0.AppliedSeq(), r0.Digest())
		}
		if r.TimelineDigest() != r0.TimelineDigest() {
			t.Fatalf("replica %d timeline diverged:\n%s\nvs replica 0:\n%s",
				i, strings.Join(r.timeline, "\n"), strings.Join(r0.timeline, "\n"))
		}
	}
	for i := 0; i < d.Nodes(); i++ {
		if err := d.Node(i).Replica().Engine().CheckInvariants(); err != nil {
			t.Fatalf("replica %d alert invariants: %v", i, err)
		}
	}
}

// TestFedQuorumOpensAndResolves: a fault every vantage point sees opens
// exactly one quorum-confirmed incident, which resolves exactly once
// after the fault clears, and every replica converges bit-identically.
func TestFedQuorumOpensAndResolves(t *testing.T) {
	d := newTestDeploy(t, 1)
	watchSteps(t, d)
	d.Run(2)
	link := spineLink(t, d.Node(0).Cluster.Topo)
	injs := corrupt(t, d, link, 0.5, 0, 1, 2)
	d.Run(6)

	key := fmt.Sprintf("link:%d/switch-link", int(link))
	tl := d.Node(0).Replica().timeline
	if n := countEvents(tl, "open", key); n != 1 {
		t.Fatalf("after fault: %d incident opens for %s, want exactly 1; timeline:\n%s",
			n, key, strings.Join(tl, "\n"))
	}

	for _, in := range injs {
		in.ClearAll()
	}
	// VoteOverlap keeps stale votes eligible for 4 windows, then the
	// engine needs ResolveAfter clean windows: give it room.
	d.Run(10)
	tl = d.Node(0).Replica().timeline
	if opens, resolves := countEvents(tl, "open", key), countEvents(tl, "resolve", key); opens != 1 || resolves != 1 {
		t.Fatalf("after clear: %d opens and %d resolves for %s, want exactly 1 each; timeline:\n%s",
			opens, resolves, key, strings.Join(tl, "\n"))
	}
	requireConverged(t, d)
}

// countEvents counts timeline lines carrying both the event type and the
// incident key.
func countEvents(timeline []string, event, key string) int {
	n := 0
	for _, l := range timeline {
		if strings.Contains(l, " "+event+" ") && strings.Contains(l, key) {
			n++
		}
	}
	return n
}

// TestFedSingleVantageClamp: an entity only one node's probes can see —
// an RNIC watched by its own ToR mesh — must still be reportable: the
// quorum clamps to the covering set (floor 1), so the single vantage's
// vote opens the incident alone.
func TestFedSingleVantageClamp(t *testing.T) {
	d := newTestDeploy(t, 2)
	watchSteps(t, d)
	d.Run(2)

	// Deterministic pick: first host of node 0's shard, first RNIC.
	n0 := d.Node(0)
	hosts := make([]string, 0, len(n0.shard))
	for h := range n0.shard {
		hosts = append(hosts, string(h))
	}
	sort.Strings(hosts)
	host := topo.HostID(hosts[0])
	dev := n0.Cluster.Topo.Hosts[host].RNICs[0]

	// Ground truth everywhere; only node 0's ToR mesh can observe it.
	for i := 0; i < d.Nodes(); i++ {
		in := faultgen.NewInjector(d.Node(i).Cluster, 7)
		if _, err := in.Inject(faultgen.Fault{Cause: faultgen.RNICDown, Dev: dev}); err != nil {
			t.Fatalf("inject node %d: %v", i, err)
		}
	}
	d.Run(6)

	entity := "dev:" + string(dev)
	opened := false
	for _, line := range d.Node(0).Replica().timeline {
		if strings.Contains(line, "open") && strings.Contains(line, entity) {
			opened = true
		}
	}
	if !opened {
		t.Fatalf("single-vantage entity %s never opened globally; timeline:\n%s",
			entity, strings.Join(d.Node(0).Replica().timeline, "\n"))
	}
	requireConverged(t, d)
}

// TestFedSuppressesSingleNodeFalsePositive is the acceptance golden: a
// fault visible from only one of three vantage points (injected into one
// replica's physics) opens a local incident on that node but never a
// global one, while the same fault on every vantage confirms globally.
func TestFedSuppressesSingleNodeFalsePositive(t *testing.T) {
	var out strings.Builder

	// Phase A: node 1 alone sees corruption (a single-vantage artifact).
	dA := newTestDeploy(t, 3)
	watchSteps(t, dA)
	dA.Run(2)
	linkA := spineLink(t, dA.Node(0).Cluster.Topo)
	corrupt(t, dA, linkA, 0.5, 1)
	dA.Run(8)
	requireConverged(t, dA)

	fmt.Fprintf(&out, "== single-vantage fault (node 1 only): global timeline ==\n")
	writeTimeline(&out, dA.Node(0).Replica().timeline)
	locals := dA.Node(1).Cluster.Alerts.Incidents(alert.Filter{})
	localKeys := make([]string, 0, len(locals))
	for _, in := range locals {
		if in.Key.Class.String() == "switch-link" {
			localKeys = append(localKeys, in.Key.String())
		}
	}
	sort.Strings(localKeys)
	fmt.Fprintf(&out, "== node 1 local switch-link incidents (the suppressed false positive) ==\n")
	if len(localKeys) == 0 {
		t.Fatal("node 1 never even opened a local incident — the fault was not observed at all")
	}
	for _, k := range localKeys {
		fmt.Fprintf(&out, "%s\n", k)
	}
	for _, line := range dA.Node(0).Replica().timeline {
		if strings.Contains(line, "open") {
			t.Fatalf("single-vantage fault opened a global incident: %s", line)
		}
	}

	// Phase B: the same fault on every vantage point must confirm.
	dB := newTestDeploy(t, 3)
	watchSteps(t, dB)
	dB.Run(2)
	corrupt(t, dB, linkA, 0.5, 0, 1, 2)
	dB.Run(8)
	requireConverged(t, dB)
	fmt.Fprintf(&out, "== same fault on all 3 vantage points: global timeline ==\n")
	writeTimeline(&out, dB.Node(0).Replica().timeline)
	openedGlobal := false
	for _, line := range dB.Node(0).Replica().timeline {
		if strings.Contains(line, "open") {
			openedGlobal = true
		}
	}
	if !openedGlobal {
		t.Fatal("quorum fault opened no global incident")
	}

	checkGolden(t, "suppression.golden", out.String())
}

func writeTimeline(out *strings.Builder, lines []string) {
	if len(lines) == 0 {
		out.WriteString("(none)\n")
		return
	}
	for _, l := range lines {
		out.WriteString(l)
		out.WriteByte('\n')
	}
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if string(want) != got {
		t.Fatalf("output diverges from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestFedFailoverReconcile kills the leader mid-incident: leadership
// must move, the incident must survive without reopening, and the
// revived node must catch up to an identical log.
func TestFedFailoverReconcile(t *testing.T) {
	d := newTestDeploy(t, 4)
	watchSteps(t, d)
	d.Run(2)
	link := spineLink(t, d.Node(0).Cluster.Topo)
	injs := corrupt(t, d, link, 0.5, 0, 1, 2)
	d.Run(3) // incident opens under leader 0

	d.Kill(0, true)
	d.Run(4) // HeartbeatMiss=2 stalls two windows, then node 1 leads
	d.Kill(0, false)
	d.Run(4) // node 0 syncs up and (caught up) takes leadership back

	for _, in := range injs {
		in.ClearAll()
	}
	d.Run(10)
	requireConverged(t, d)

	hist := d.LeaderHistory()
	saw1 := false
	for _, l := range hist {
		if l == 1 {
			saw1 = true
		}
	}
	if !saw1 {
		t.Fatalf("leadership never moved to node 1 after killing 0: %v", hist)
	}
	if last := hist[len(hist)-1]; last != 0 {
		t.Fatalf("node 0 never took leadership back after rejoining: %v", hist)
	}

	// The incident must have opened exactly once — failover neither lost
	// nor double-opened it.
	entity := fmt.Sprintf("link:%d", int(link))
	opens, resolves := 0, 0
	for _, line := range d.Node(0).Replica().timeline {
		if !strings.Contains(line, entity) {
			continue
		}
		if strings.Contains(line, " open ") {
			opens++
		}
		if strings.Contains(line, " resolve ") {
			resolves++
		}
	}
	if opens != 1 || resolves != 1 {
		t.Fatalf("want exactly one open and one resolve for %s across failover, got %d/%d; timeline:\n%s",
			entity, opens, resolves, strings.Join(d.Node(0).Replica().timeline, "\n"))
	}
}

// TestFedPartitionBuffersVotes isolates a node: its votes must stay
// buffered or expire (counted), never vanish, and rejoin must reconcile.
func TestFedPartitionBuffersVotes(t *testing.T) {
	d := newTestDeploy(t, 5)
	watchSteps(t, d)
	d.Run(2)
	link := spineLink(t, d.Node(0).Cluster.Topo)
	corrupt(t, d, link, 0.5, 0, 1, 2)

	d.Partition(2, true)
	d.Run(6) // long enough that some of node 2's buffered votes expire
	if d.Node(2).VotesExpired() == 0 && d.Node(2).OutboxVotes() == 0 {
		t.Fatal("partitioned node neither buffered nor expired any votes")
	}
	d.Partition(2, false)
	d.Run(6)
	requireConverged(t, d)

	a := d.Accounting()
	if !a.Balanced() {
		t.Fatalf("conservation broken after partition heal: %v", a)
	}
	if a.Expired == 0 && a.Dropped == 0 {
		t.Logf("note: no votes expired or dropped (all reconciled): %v", a)
	}
}

// TestFedDeterminism: identical seeds and fault schedules must yield
// bit-identical canonical logs, leader histories and incident timelines
// — the invariant the Makefile's determinism gate also runs under
// GOMAXPROCS=1 vs 8.
func TestFedDeterminism(t *testing.T) {
	run := func() (hist []int, tl []uint64, seq uint64, dig uint64) {
		d := newTestDeploy(t, 6)
		d.Run(2)
		link := spineLink(t, d.Node(0).Cluster.Topo)
		injs := corrupt(t, d, link, 0.5, 0, 1, 2)
		d.At(d.Now()+2*d.Window(), func() { d.Kill(0, true) })
		d.At(d.Now()+5*d.Window(), func() { d.Kill(0, false) })
		d.At(d.Now()+3*d.Window(), func() { d.DelayVotes(2, true) })
		d.At(d.Now()+6*d.Window(), func() { d.DelayVotes(2, false) })
		d.Run(8)
		for _, in := range injs {
			in.ClearAll()
		}
		d.Run(8)
		for i := 0; i < d.Nodes(); i++ {
			tl = append(tl, d.Node(i).Replica().TimelineDigest())
		}
		r0 := d.Node(0).Replica()
		return d.LeaderHistory(), tl, r0.AppliedSeq(), r0.Digest()
	}

	h1, t1, s1, d1 := run()
	h2, t2, s2, d2 := run()
	if fmt.Sprint(h1) != fmt.Sprint(h2) {
		t.Fatalf("leader history diverged:\n%v\n%v", h1, h2)
	}
	if fmt.Sprint(t1) != fmt.Sprint(t2) {
		t.Fatalf("timeline digests diverged:\n%v\n%v", t1, t2)
	}
	if s1 != s2 || d1 != d2 {
		t.Fatalf("canonical log diverged: seq %d/%d digest %x/%x", s1, s2, d1, d2)
	}
}

// TestFedQuorumStatus exercises the api.PeerSource view: healthy nodes
// report quorum OK; an isolated node reports degraded with a reason.
func TestFedQuorumStatus(t *testing.T) {
	d := newTestDeploy(t, 7)
	d.Run(3)
	st := d.Node(0).FedStatus()
	if !st.QuorumOK || st.Role != "leader" || st.Leader != 0 {
		t.Fatalf("healthy node 0 status: %+v", st)
	}
	if len(st.Peers) != 2 {
		t.Fatalf("want 2 peers, got %+v", st.Peers)
	}
	for _, p := range st.Peers {
		if !p.Alive || p.LastHeartbeatAge != 0 {
			t.Fatalf("healthy peer not alive: %+v", p)
		}
	}

	d.Partition(2, true)
	d.Run(3)
	st2 := d.Node(2).FedStatus()
	if st2.QuorumOK {
		t.Fatalf("isolated node still claims quorum: %+v", st2)
	}
	if st2.Reason == "" {
		t.Fatal("degraded status carries no reason")
	}
	// The connected majority keeps quorum.
	if st0 := d.Node(0).FedStatus(); !st0.QuorumOK {
		t.Fatalf("majority side lost quorum: %+v", st0)
	}
}
