package fed

import (
	"fmt"
	"sort"
	"sync"

	"rpingmesh/internal/core"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// DeployConfig describes an in-process federated deployment for the
// deterministic simulation: N nodes over one shared CLOS shape, each
// probing its own pod shard.
type DeployConfig struct {
	// Fed is the federation tier configuration (Nodes is N).
	Fed Config
	// Seed seeds every node's cluster identically: the replicas share the
	// fabric's physics, they differ only in vantage point.
	Seed int64
	// Clos is the shared fabric shape. Zero dimensions default to one pod
	// per node, 2 ToRs × 2 Aggs per pod, 2 spines, 2 hosts per ToR.
	Clos topo.ClosConfig
	// Configure, when set, adjusts each node's core.Config before the
	// cluster is built (fault injection setup, pipeline policy, …). The
	// topology, seed and controller wrapper are already in place.
	Configure func(node int, cfg *core.Config)
}

// StepInfo summarizes one coordination step for observers (the chaos
// invariant sweep, the soak runner's leader history).
type StepInfo struct {
	// Window is the global window index just coordinated.
	Window int
	// Leader is the node that committed this window's round, -1 if no
	// node could (no elected leader reached a majority).
	Leader int
	// DoubleCommit reports that more than one node committed a round for
	// this window — split-brain, always an invariant violation.
	DoubleCommit bool
	// Synced is the number of rounds replayed to lagging peers this step.
	Synced int
	// Errors lists round-application failures (log divergence).
	Errors []string
}

// VoteAccounting is the federation-wide conservation ledger: every vote
// a node ever emitted must be counted in the canonical committed log,
// still buffered in an outbox, expired locally, or dropped-and-counted
// by a committing replica.
type VoteAccounting struct {
	Emitted  uint64
	Counted  uint64
	Buffered uint64
	Expired  uint64 // expired in node outboxes while unreachable
	Dropped  uint64 // deduped/expired/rejected on a commit path
}

// Balanced reports whether the ledger balances.
func (a VoteAccounting) Balanced() bool {
	return a.Emitted == a.Counted+a.Buffered+a.Expired+a.Dropped
}

func (a VoteAccounting) String() string {
	return fmt.Sprintf("emitted=%d counted=%d buffered=%d expired=%d dropped=%d",
		a.Emitted, a.Counted, a.Buffered, a.Expired, a.Dropped)
}

// committedRound is the deploy's canonical record of one committed seq —
// the reference the conservation ledger and split-brain check use.
type committedRound struct {
	digest uint64
	votes  uint64
	window int
	leader int
}

// mutation is a timed federation fault, applied at the first window
// boundary at or after At.
type mutation struct {
	at sim.Time
	fn func()
}

// Deploy is an in-process federated deployment: N fed.Nodes advanced in
// lockstep, one coordination round per analysis window. Cluster physics
// runs in parallel (the replicas are independent simulations), while
// coordination — heartbeats, election, sync, vote delivery, commit — is
// single-threaded and canonically ordered, so the committed round log
// and every incident timeline derived from it are bit-identical for a
// fixed seed regardless of GOMAXPROCS or which nodes were partitioned.
type Deploy struct {
	cfg    DeployConfig
	nodes  []*Node
	window sim.Time
	step   int

	isolated []bool // partitioned from every peer
	killed   []bool // coordination process down (cluster keeps probing)
	delayed  []bool // votes withheld this and following steps

	mutations []mutation

	canonical     map[uint64]committedRound
	maxSeq        uint64
	leaderHistory []int
	onStep        []func(StepInfo)
}

// NewDeploy builds the federation.
func NewDeploy(cfg DeployConfig) (*Deploy, error) {
	cfg.Fed.setDefaults()
	n := cfg.Fed.Nodes
	clos := cfg.Clos
	if clos.Pods <= 0 {
		clos.Pods = n
		if clos.Pods < 2 {
			clos.Pods = 2
		}
	}
	if clos.ToRsPerPod <= 0 {
		clos.ToRsPerPod = 2
	}
	if clos.AggsPerPod <= 0 {
		clos.AggsPerPod = 2
	}
	if clos.Spines <= 0 {
		clos.Spines = 2
	}
	if clos.HostsPerToR <= 0 {
		clos.HostsPerToR = 2
	}
	if clos.RNICsPerHost <= 0 {
		clos.RNICsPerHost = 1
	}

	d := &Deploy{
		cfg:       cfg,
		isolated:  make([]bool, n),
		killed:    make([]bool, n),
		delayed:   make([]bool, n),
		canonical: make(map[uint64]committedRound),
	}
	for i := 0; i < n; i++ {
		// Each node builds its own Topology from the same shape: identical
		// IDs and physics, but no shared mutable state between the parallel
		// cluster advances.
		tp, err := topo.BuildClos(clos)
		if err != nil {
			return nil, fmt.Errorf("fed: node %d topology: %w", i, err)
		}
		sh, err := tp.Partition(n)
		if err != nil {
			return nil, fmt.Errorf("fed: node %d partition: %w", i, err)
		}
		shard := make(map[topo.HostID]bool)
		for h, s := range sh.HostShard {
			if s == i%sh.Shards {
				shard[h] = true
			}
		}
		ccfg := core.Config{Topology: tp, Seed: cfg.Seed}
		if cfg.Configure != nil {
			cfg.Configure(i, &ccfg)
		}
		node, err := newNode(i, cfg.Fed, shard, ccfg)
		if err != nil {
			return nil, err
		}
		node.Cluster.StartAgents()
		d.nodes = append(d.nodes, node)
		if i == 0 {
			d.window = node.Cluster.Analyzer.Window()
		}
	}
	return d, nil
}

// Node returns federation peer i.
func (d *Deploy) Node(i int) *Node { return d.nodes[i] }

// Nodes is the federation size.
func (d *Deploy) Nodes() int { return len(d.nodes) }

// Window is the analysis/coordination window length.
func (d *Deploy) Window() sim.Time { return d.window }

// Steps is the number of coordination steps run so far.
func (d *Deploy) Steps() int { return d.step }

// Now is the simulated time reached by the lockstep advance.
func (d *Deploy) Now() sim.Time { return sim.Time(d.step) * d.window }

// OnStep registers an observer called after every coordination step.
func (d *Deploy) OnStep(fn func(StepInfo)) { d.onStep = append(d.onStep, fn) }

// LeaderHistory returns the committing leader of every step (-1 where no
// commit happened).
func (d *Deploy) LeaderHistory() []int {
	return append([]int(nil), d.leaderHistory...)
}

// At schedules fn to run at the first window boundary at or after t,
// before that window's coordination. Used to inject federation faults
// deterministically mid-run.
func (d *Deploy) At(t sim.Time, fn func()) {
	d.mutations = append(d.mutations, mutation{at: t, fn: fn})
	sort.SliceStable(d.mutations, func(i, j int) bool { return d.mutations[i].at < d.mutations[j].at })
}

// Partition isolates node i from every peer (or heals it). The node's
// cluster keeps probing and voting into its outbox.
func (d *Deploy) Partition(i int, on bool) { d.isolated[i] = on }

// Kill takes node i's coordination process down (or revives it). The
// underlying cluster keeps probing — the paper's agents survive
// controller restarts on cached pinglists — but the node neither sends
// nor receives federation traffic. Revival clears the peer table: a
// restarted coordinator relearns the federation from fresh heartbeats.
func (d *Deploy) Kill(i int, on bool) {
	if d.killed[i] && !on {
		d.nodes[i].resetPeers()
	}
	d.killed[i] = on
}

// DelayVotes withholds node i's vote deliveries (or releases them); the
// batches stay buffered in the outbox and reconcile later — the
// arrival-interleaving knob the determinism invariant exercises.
func (d *Deploy) DelayVotes(i int, on bool) { d.delayed[i] = on }

// Killed reports node i's coordination-process state.
func (d *Deploy) Killed(i int) bool { return d.killed[i] }

// Partitioned reports node i's isolation state.
func (d *Deploy) Partitioned(i int) bool { return d.isolated[i] }

// down: no coordination I/O at all.
func (d *Deploy) down(i int) bool { return d.killed[i] }

// canReach: both coordination processes up and neither end isolated.
func (d *Deploy) canReach(i, j int) bool {
	return i != j && !d.down(i) && !d.down(j) && !d.isolated[i] && !d.isolated[j]
}

// Run advances the deployment by n windows.
func (d *Deploy) Run(n int) {
	for i := 0; i < n; i++ {
		d.Step()
	}
}

// Step advances every cluster one analysis window (in parallel — the
// replicas are independent simulations) and then runs one deterministic
// coordination round at the boundary.
func (d *Deploy) Step() StepInfo {
	var wg sync.WaitGroup
	for _, n := range d.nodes {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			n.Cluster.Run(d.window)
		}(n)
	}
	wg.Wait()

	w := d.step
	boundary := sim.Time(w+1) * d.window
	for len(d.mutations) > 0 && d.mutations[0].at <= boundary {
		d.mutations[0].fn()
		d.mutations = d.mutations[1:]
	}

	info := d.coordinate(w)
	d.step++
	d.leaderHistory = append(d.leaderHistory, info.Leader)
	for _, fn := range d.onStep {
		fn(info)
	}
	return info
}

// coordinate runs one federation round for global window w. Order is
// canonical throughout (ascending node index at every phase), which is
// what makes the committed log independent of scheduling.
func (d *Deploy) coordinate(w int) StepInfo {
	info := StepInfo{Window: w, Leader: -1}
	n := len(d.nodes)

	// Phase 1 — heartbeats. Every up node beacons; every reachable peer
	// folds it. A node always hears itself.
	for i := 0; i < n; i++ {
		if d.down(i) {
			continue
		}
		hb := d.nodes[i].heartbeat(w)
		for j := 0; j < n; j++ {
			if d.canReach(i, j) {
				d.nodes[j].onHeartbeat(hb, w)
			}
		}
	}

	// Phase 2 — every up node recomputes its leader view from the peer
	// table; connected nodes converge because they folded the same beacons.
	views := make([]int, n)
	for i := 0; i < n; i++ {
		views[i] = -1
		if !d.down(i) {
			views[i] = d.nodes[i].electLeader(w)
		}
	}

	// Phase 3 — which self-believed leaders may commit this step: only
	// those that heard a majority of the federation THIS step. Fresh
	// beacons (not the HeartbeatMiss-tolerant view) are the split-brain
	// guard: at most one connected component holds a majority.
	willCommit := make([]bool, n)
	for i := 0; i < n; i++ {
		willCommit[i] = !d.down(i) && views[i] == i && d.nodes[i].hasFreshMajority(w)
	}

	// Phase 4 — reconciliation: committing leaders replay their round-log
	// suffix to reachable peers that fell behind.
	for i := 0; i < n; i++ {
		if !willCommit[i] {
			continue
		}
		leader := d.nodes[i]
		for j := 0; j < n; j++ {
			if !d.canReach(i, j) {
				continue
			}
			peer := d.nodes[j]
			behind := peer.rep.AppliedSeq()
			if behind >= leader.rep.AppliedSeq() {
				continue
			}
			rounds := leader.rep.RoundsSince(behind)
			for _, rd := range rounds {
				if err := peer.rep.Apply(rd); err != nil {
					info.Errors = append(info.Errors,
						fmt.Sprintf("sync %d→%d: %v", i, j, err))
					break
				}
				info.Synced++
			}
			leader.notePeerSeq(j, peer.rep.AppliedSeq())
		}
	}

	// Phase 5 — vote delivery. A node sends its outbox to its believed
	// leader only when that leader will actually commit this step (any
	// other leader would refuse the batch and leave it buffered).
	delivered := make(map[int][]proto.VoteBatch, 1)
	for i := 0; i < n; i++ {
		if d.down(i) || d.delayed[i] {
			continue
		}
		l := views[i]
		if l < 0 || !willCommit[l] {
			continue
		}
		if l != i && !d.canReach(i, l) {
			continue
		}
		delivered[l] = append(delivered[l], d.nodes[i].takeOutbox()...)
	}

	// Phase 6 — commit and broadcast. Ascending order again; the first
	// committer is the step's recorded leader, any second one is flagged.
	for i := 0; i < n; i++ {
		if !willCommit[i] {
			continue
		}
		rd, err := d.nodes[i].rep.Commit(i, w, delivered[i])
		if err != nil {
			info.Errors = append(info.Errors, fmt.Sprintf("commit at %d: %v", i, err))
			continue
		}
		if info.Leader < 0 {
			info.Leader = i
		} else {
			info.DoubleCommit = true
		}
		d.recordCanonical(rd, &info)
		for j := 0; j < n; j++ {
			if !d.canReach(i, j) {
				continue
			}
			if err := d.nodes[j].rep.Apply(rd); err != nil {
				info.Errors = append(info.Errors, fmt.Sprintf("apply %d→%d: %v", i, j, err))
				continue
			}
			d.nodes[i].notePeerSeq(j, d.nodes[j].rep.AppliedSeq())
		}
	}
	return info
}

// recordCanonical folds one committed round into the deploy-wide
// canonical log, flagging any seq committed twice with different content.
func (d *Deploy) recordCanonical(rd proto.Round, info *StepInfo) {
	var votes uint64
	for _, b := range rd.Batches {
		votes += uint64(len(b.Votes))
	}
	if prev, ok := d.canonical[rd.Seq]; ok {
		if prev.digest != rd.Digest {
			info.Errors = append(info.Errors, fmt.Sprintf(
				"seq %d committed twice with different digests (%x by %d, %x by %d)",
				rd.Seq, prev.digest, prev.leader, rd.Digest, rd.Leader))
		}
		return
	}
	d.canonical[rd.Seq] = committedRound{digest: rd.Digest, votes: votes, window: rd.Window, leader: rd.Leader}
	if rd.Seq > d.maxSeq {
		d.maxSeq = rd.Seq
	}
}

// MaxSeq is the highest canonically committed round sequence.
func (d *Deploy) MaxSeq() uint64 { return d.maxSeq }

// CanonicalDigest returns the digest of canonical round seq.
func (d *Deploy) CanonicalDigest(seq uint64) (uint64, bool) {
	r, ok := d.canonical[seq]
	return r.digest, ok
}

// Accounting computes the federation-wide vote conservation ledger.
func (d *Deploy) Accounting() VoteAccounting {
	var a VoteAccounting
	for _, r := range d.canonical {
		a.Counted += r.votes
	}
	for _, n := range d.nodes {
		a.Emitted += n.VotesEmitted()
		a.Expired += n.VotesExpired()
		a.Buffered += n.OutboxVotes()
		dr := n.rep.Drops()
		a.Dropped += dr.Total()
	}
	return a
}
