package fed

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"rpingmesh/internal/alert"
	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/api"
	"rpingmesh/internal/core"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/topo"
)

// Node is one federation peer: a full core.Cluster replica of the shared
// fabric probing only its own pod shard, the vote/coverage extraction
// that turns its analyzer windows into signed VoteBatches, a bounded
// outbox that keeps voting while the coordinator is unreachable, and the
// peer table heartbeat-driven leader election reads.
type Node struct {
	Index   int
	Cluster *core.Cluster

	cfg   Config
	shard map[topo.HostID]bool
	rep   *Replica

	mu sync.Mutex // coordination state vs. console FedStatus readers

	// Vote production (engine goroutine during Cluster.Run; coordination
	// goroutine between runs — never both at once in the lockstep deploy).
	pendingCover map[proto.CoverClaim]bool
	lastWindow   int
	nextVersion  uint64
	outbox       []proto.VoteBatch
	votesEmitted uint64
	votesExpired uint64

	// Peer table.
	lastHeard map[int]int
	peerSeq   map[int]uint64
	// advertised is the applied seq this node's latest beacon carried.
	// Elections compare advertised values — never a node's live applied
	// seq — so every candidate is judged on equally fresh information: a
	// follower that just applied a broadcast is one round ahead of every
	// peer's *last* beacon, and comparing live-self against stale-peers
	// would let any freshly partitioned node depose a healthy leader.
	advertised uint64
	leader     int
	lastStep   int
	quorumOK   bool
}

// newNode wires one federation peer over its shard of the topology.
// build configures the underlying cluster (the deploy passes topology,
// seed, and any per-node overrides through it).
func newNode(index int, cfg Config, shard map[topo.HostID]bool, ccfg core.Config) (*Node, error) {
	n := &Node{
		Index:        index,
		cfg:          cfg,
		shard:        shard,
		rep:          nil,
		pendingCover: make(map[proto.CoverClaim]bool),
		lastWindow:   -1,
		lastHeard:    make(map[int]int),
		peerSeq:      make(map[int]uint64),
		leader:       index,
		lastStep:     -1,
	}
	// Pinglist filtering is the shard boundary: every host registers and
	// responds (so cross-pod probes from other shards complete), but only
	// this node's hosts receive pinglists, so only they probe and vote.
	prev := ccfg.WrapController
	ccfg.WrapController = func(local proto.Controller) proto.Controller {
		inner := local
		if prev != nil {
			inner = prev(local)
		}
		return shardController{Controller: inner, hosts: shard}
	}
	c, err := core.NewCluster(ccfg)
	if err != nil {
		return nil, fmt.Errorf("fed: node %d cluster: %w", index, err)
	}
	n.Cluster = c
	n.rep = NewReplica(cfg, c.Analyzer.Window())
	c.TapRecords(n.observeRecords)
	c.OnWindow(n.onWindow)
	return n, nil
}

// Replica exposes the node's copy of the replicated coordination state
// (the global incident engine hangs off it).
func (n *Node) Replica() *Replica { return n.rep }

// shardController filters pinglists down to one node's probe shard.
type shardController struct {
	proto.Controller
	hosts map[topo.HostID]bool
}

func (s shardController) Pinglists(h topo.HostID) []proto.Pinglist {
	if !s.hosts[h] {
		return nil
	}
	return s.Controller.Pinglists(h)
}

// observeRecords runs on every delivered upload batch and accumulates
// this window's coverage claims: which (entity, class) pairs this node's
// probes were in a position to judge. The claims are what scale the
// quorum per entity — Q is demanded only of nodes that could have seen
// the problem. A claim depends only on a record's route, so each route a
// record points at is claimed once per batch.
func (n *Node) observeRecords(b *proto.RecordBatch) {
	claimed := make([]bool, b.Routes())
	for i := 0; i < b.Len(); i++ {
		ri := b.RouteIndex(i)
		if claimed[ri] {
			continue
		}
		claimed[ri] = true
		r := b.Route(ri)
		if r.DstHost != "" {
			n.claim("host:"+string(r.DstHost), analyzer.ProblemHostDown)
			n.claim("host:"+string(r.DstHost), analyzer.ProblemHighProcDelay)
		}
		if r.DstDev != "" {
			n.claim("dev:"+string(r.DstDev), analyzer.ProblemHighRTT)
			if r.Kind == proto.ToRMesh {
				n.claim("dev:"+string(r.DstDev), analyzer.ProblemRNIC)
			}
		}
		if r.Kind == proto.ServiceTracing {
			n.claim("service", analyzer.ProblemHighRTT)
		}
		for _, l := range r.ProbePath {
			n.claim("link:"+strconv.Itoa(int(l)), analyzer.ProblemSwitchLink)
		}
		for _, l := range r.AckPath {
			n.claim("link:"+strconv.Itoa(int(l)), analyzer.ProblemSwitchLink)
		}
	}
}

func (n *Node) claim(entity string, class analyzer.ProblemKind) {
	n.pendingCover[proto.CoverClaim{Entity: entity, Class: int(class)}] = true
}

// onWindow distills one local analyzer window into a signed VoteBatch
// and buffers it. Runs on the cluster's engine goroutine.
func (n *Node) onWindow(rep analyzer.WindowReport) {
	type agg struct {
		sev      alert.Severity
		count    int
		evidence int
	}
	aggs := make(map[voteKey]*agg)
	var order []voteKey
	fold := func(k voteKey, sev alert.Severity, evidence int) {
		a, ok := aggs[k]
		if !ok {
			a = &agg{sev: sev}
			aggs[k] = a
			order = append(order, k)
		}
		if sev > a.sev {
			a.sev = sev
		}
		a.count++
		if evidence > a.evidence {
			a.evidence = evidence
		}
	}
	for _, p := range rep.Problems {
		sev := alert.SeverityOf(p.Priority)
		if p.Kind == analyzer.ProblemSwitchLink && len(p.Links) > 0 {
			// Vote for every link tied at the top of Algorithm 1's count:
			// plane-symmetric replicas may break the tie differently, but
			// the truly faulty link is in every node's tie set, so that is
			// where the quorum meets. Spurious tie members differ across
			// vantage points and stay below Q — extra suppression for free.
			for _, l := range p.Links {
				fold(voteKey{Entity: fmt.Sprintf("link:%d", int(l)), Class: p.Kind}, sev, p.Evidence)
			}
			continue
		}
		fold(keyOfProblem(p), sev, p.Evidence)
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	n.lastWindow = rep.Index
	n.nextVersion++
	votes := make([]proto.ProblemVote, 0, len(order))
	for _, k := range order {
		a := aggs[k]
		v := proto.ProblemVote{
			Node: n.Index, Window: rep.Index,
			Entity: k.Entity, Class: int(k.Class), Severity: int(a.sev),
			Count: a.count, Evidence: a.evidence, Version: n.nextVersion,
		}
		v.Sig = SignVote(n.cfg.Secret, v)
		votes = append(votes, v)
	}
	sortVotes(votes)
	covered := make([]proto.CoverClaim, 0, len(n.pendingCover))
	for c := range n.pendingCover {
		covered = append(covered, c)
	}
	sortClaims(covered)
	n.pendingCover = make(map[proto.CoverClaim]bool)

	b := proto.VoteBatch{
		Node: n.Index, Window: rep.Index, Proto: proto.FedVersion,
		Version: n.nextVersion, Sent: rep.End,
		Votes: votes, Covered: covered,
	}
	b.Sig = SignBatch(n.cfg.Secret, b)
	n.outbox = append(n.outbox, b)
	n.votesEmitted += uint64(len(votes))

	// Expire buffered batches past the overlap horizon: their votes could
	// no longer count toward any quorum, so holding them would only hide
	// them from the conservation ledger.
	keep := n.outbox[:0]
	for _, ob := range n.outbox {
		if ob.Window <= rep.Index-n.cfg.VoteOverlap {
			n.votesExpired += uint64(len(ob.Votes))
			continue
		}
		keep = append(keep, ob)
	}
	n.outbox = keep
}

// takeOutbox drains the buffered batches for delivery. The lockstep
// deploy only calls it when the target leader is committing this step,
// so a drained batch is always folded or accounted by the leader.
func (n *Node) takeOutbox() []proto.VoteBatch {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.outbox
	n.outbox = nil
	return out
}

// OutboxVotes counts the votes currently buffered (conservation's
// "still in flight" leg).
func (n *Node) OutboxVotes() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var total uint64
	for _, b := range n.outbox {
		total += uint64(len(b.Votes))
	}
	return total
}

// VotesEmitted and VotesExpired expose the node-side conservation legs.
func (n *Node) VotesEmitted() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.votesEmitted
}

func (n *Node) VotesExpired() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.votesExpired
}

// heartbeat renders this node's beacon for global window w and records
// the advertised progress for this step's election.
func (n *Node) heartbeat(w int) proto.Heartbeat {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.advertised = n.rep.AppliedSeq()
	return proto.Heartbeat{Node: n.Index, Window: w, AppliedSeq: n.advertised, Leader: n.leader}
}

// onHeartbeat folds a peer's beacon into the table.
func (n *Node) onHeartbeat(hb proto.Heartbeat, w int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if w > n.lastHeard[hb.Node] || n.lastHeard[hb.Node] == 0 {
		n.lastHeard[hb.Node] = w
	}
	if hb.AppliedSeq > n.peerSeq[hb.Node] {
		n.peerSeq[hb.Node] = hb.AppliedSeq
	}
}

// resetPeers clears the peer table — a restarted coordination process
// relearns the federation from fresh heartbeats.
func (n *Node) resetPeers() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lastHeard = make(map[int]int)
	n.peerSeq = make(map[int]uint64)
	n.leader = n.Index
	n.advertised = n.rep.AppliedSeq()
}

// alive lists the nodes this one currently believes live: itself plus
// every peer heard within HeartbeatMiss windows. Sorted.
func (n *Node) aliveLocked(w int) []int {
	out := []int{n.Index}
	for j, lw := range n.lastHeard {
		if j != n.Index && lw > w-n.cfg.HeartbeatMiss {
			out = append(out, j)
		}
	}
	sort.Ints(out)
	return out
}

// electLeader recomputes this node's leader view at global window w:
// the lowest-indexed live node whose replication progress matches the
// best progress among live nodes. A rejoining node with a stale log is
// therefore ineligible until a round-log replay catches it up — the rule that
// makes failback lossless — and every connected node computes the same
// answer from the same heartbeats.
func (n *Node) electLeader(w int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lastStep = w
	alive := n.aliveLocked(w)
	n.quorumOK = len(alive) >= n.cfg.majority()
	seqOf := func(j int) uint64 {
		if j == n.Index {
			return n.advertised
		}
		return n.peerSeq[j]
	}
	var maxSeq uint64
	for _, j := range alive {
		if s := seqOf(j); s > maxSeq {
			maxSeq = s
		}
	}
	leader := n.Index
	for _, j := range alive {
		if seqOf(j) >= maxSeq {
			leader = j
			break
		}
	}
	n.leader = leader
	return leader
}

// hasFreshMajority is the commit gate: a majority of the federation must
// have beaconed in THIS step. The HeartbeatMiss tolerance is fine for
// election, but letting a leader commit on heartbeats from before a
// partition began is exactly how split-brain starts — a freshly isolated
// node would keep "hearing" a majority for HeartbeatMiss windows.
func (n *Node) hasFreshMajority(w int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	count := 1 // self
	for j, lw := range n.lastHeard {
		if j != n.Index && lw == w {
			count++
		}
	}
	return count >= n.cfg.majority()
}

// notePeerSeq records replication progress learned outside heartbeats
// (after replaying a round-log suffix or broadcasting a round).
func (n *Node) notePeerSeq(j int, seq uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if seq > n.peerSeq[j] {
		n.peerSeq[j] = seq
	}
}

// FedStatus implements api.PeerSource: the node's role, leader view,
// quorum availability and per-peer heartbeat ages for /api/peers and the
// quorum-aware /healthz.
func (n *Node) FedStatus() api.FedStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	role := "follower"
	if n.leader == n.Index {
		role = "leader"
	}
	st := api.FedStatus{
		Node: n.Index, Nodes: n.cfg.Nodes, Quorum: n.cfg.Quorum,
		Role: role, Leader: n.leader, Window: n.lastStep,
		AppliedSeq: n.rep.AppliedSeq(), QuorumOK: n.quorumOK,
	}
	if n.cfg.Nodes == 1 {
		st.QuorumOK = true
	}
	if !st.QuorumOK {
		st.Reason = fmt.Sprintf("quorum unavailable: hear %d/%d nodes, need %d",
			len(n.aliveLocked(n.lastStep)), n.cfg.Nodes, n.cfg.majority())
	}
	for j := 0; j < n.cfg.Nodes; j++ {
		if j == n.Index {
			continue
		}
		p := api.PeerStatus{Node: j, AppliedSeq: n.peerSeq[j], Leader: j == n.leader}
		if lw, ok := n.lastHeard[j]; ok {
			p.LastHeartbeatAge = n.lastStep - lw
			p.Alive = lw > n.lastStep-n.cfg.HeartbeatMiss
		} else {
			p.LastHeartbeatAge = -1
		}
		st.Peers = append(st.Peers, p)
	}
	return st
}
