// Package fed is the federated control plane: N peer controller/analyzer
// nodes — one per pod or region — each running the existing agent →
// pipeline → analyzer stack against its local probe shard, plus a
// coordination tier that folds per-node problem *votes* into globally
// confirmed incidents. It is the multi-process story of ROADMAP Open
// item 1: the paper deploys over tens of thousands of RNICs, which no
// single analyzer process watches alone, and 007-style democratic voting
// across vantage points is also what suppresses single-vantage false
// positives.
//
// # Architecture
//
// Every Node wraps a full core.Cluster replica of the shared fabric
// (same topology, same seed — identical physics) but filters pinglists
// so only the node's own pod shard actually probes: node k sees the
// fabric exactly as a regional deployment would, through the probes its
// own hosts send. Per analysis window each node distills its analyzer
// report into signed proto.ProblemVote records plus proto.CoverClaim
// coverage claims ("my probes could have detected this entity/class"),
// and buffers them in a local outbox.
//
// Coordination is a replicated log of vote Rounds. The leader — the
// lowest-indexed live node whose replication progress is not behind any
// live peer — collects delivered vote batches each window, commits them
// as a hash-chained Round, applies it to its own replica, and broadcasts
// it; followers apply rounds in sequence order and verify the chain.
// Every replica therefore runs the same quorum evaluator over the same
// round log and feeds the same synthesized problems into its own
// alert.Engine: incident state is replicated by construction, so leader
// failover can neither lose an incident nor open it twice, and the
// global timeline is a pure function of the committed log — bit-identical
// for a fixed seed regardless of which nodes were partitioned when.
//
// The quorum rule: an entity/class opens only when ≥Q of the nodes that
// *cover* it voted it problematic within the overlap horizon (Q clamped
// to the live coverage, min 1 — an entity only one vantage can see must
// not be unreportable), and closes by the same rule via the alert
// engine's usual hysteresis: when quorum is lost the evaluator stops
// synthesizing the problem and ResolveAfter clean rounds resolve it.
//
// Availability follows the paper's controller-restart story: a node that
// cannot reach the leader keeps its cached pinglists, keeps probing, and
// keeps buffering votes (bounded by the overlap horizon — older votes
// could no longer count toward any quorum and are expired, counted, not
// silently dropped). On rejoin the leader replays the missed round
// suffix before accepting the node's buffered votes, so
// reconciliation is ordered and deterministic.
package fed

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"rpingmesh/internal/alert"
	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/topo"
)

// Config tunes the federation tier; zero values take defaults.
type Config struct {
	// Nodes is the federation size N (>= 1).
	Nodes int
	// Quorum is Q: votes required (among covering nodes) to confirm an
	// entity problematic. Default: majority of N. Clamped per entity to
	// the number of nodes currently covering it (min 1).
	Quorum int
	// VoteOverlap is the window horizon (in global windows) within which
	// votes from different nodes count as overlapping, and also how long
	// an unreachable node's outbox entries stay eligible before expiring.
	// Default 4 — wide enough to bridge a heartbeat-miss failover.
	VoteOverlap int
	// CoverageHorizon is how many windows a coverage claim keeps a node
	// in an entity's quorum denominator. Default 4.
	CoverageHorizon int
	// HeartbeatMiss is how many consecutive missed heartbeats demote a
	// peer to dead for election and quorum-availability purposes.
	// Default 2.
	HeartbeatMiss int
	// Secret keys the vote/batch signatures. All nodes of one deployment
	// share it; a batch whose signature does not verify is dropped and
	// counted, never folded.
	Secret uint64
	// Alert configures every replica's global incident engine (the same
	// lifecycle engine single-node deployments use — hysteresis, flap
	// suppression and severity are reused, not reimplemented).
	Alert alert.Config
}

func (c *Config) setDefaults() {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.Quorum <= 0 {
		c.Quorum = c.Nodes/2 + 1
	}
	if c.VoteOverlap <= 0 {
		c.VoteOverlap = 4
	}
	if c.CoverageHorizon <= 0 {
		c.CoverageHorizon = 4
	}
	if c.HeartbeatMiss <= 0 {
		c.HeartbeatMiss = 2
	}
}

// majority is the node count needed for the coordinator to commit: a
// leader that cannot reach a majority of the federation stalls rather
// than risk a divergent log.
func (c *Config) majority() int { return c.Nodes/2 + 1 }

// --- vote/problem key round trip ---------------------------------------

// voteKey mirrors alert.Key: the (entity, class) identity a vote is
// about. Votes and coverage claims from different nodes meet on it.
type voteKey struct {
	Entity string
	Class  analyzer.ProblemKind
}

func keyOfProblem(p analyzer.Problem) voteKey {
	k := alert.KeyOf(p)
	return voteKey{Entity: k.Entity, Class: k.Class}
}

// problemOf reconstructs an analyzer.Problem from a confirmed vote key,
// inverting alert.KeyOf's anchoring (device, then host, then link, then
// the catch-all "service" entity) so that feeding the synthesized
// problem back through alert.KeyOf lands on the identical incident key.
func (k voteKey) problemOf(sev alert.Severity, evidence int) analyzer.Problem {
	p := analyzer.Problem{Kind: k.Class, Priority: priorityOf(sev), Evidence: evidence}
	switch {
	case strings.HasPrefix(k.Entity, "dev:"):
		p.Device = topo.DeviceID(k.Entity[len("dev:"):])
	case strings.HasPrefix(k.Entity, "host:"):
		p.Host = topo.HostID(k.Entity[len("host:"):])
	case strings.HasPrefix(k.Entity, "link:"):
		if n, err := strconv.Atoi(k.Entity[len("link:"):]); err == nil {
			p.Link = topo.LinkID(n)
			p.Links = []topo.LinkID{topo.LinkID(n)}
		}
	}
	return p
}

// priorityOf inverts alert.SeverityOf.
func priorityOf(s alert.Severity) analyzer.Priority {
	switch s {
	case alert.SevCritical:
		return analyzer.P0
	case alert.SevMajor:
		return analyzer.P1
	default:
		return analyzer.P2
	}
}

// sortClaims orders coverage claims canonically (entity, then class) so
// batch signatures and round digests never depend on map iteration.
func sortClaims(cs []proto.CoverClaim) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Entity != cs[j].Entity {
			return cs[i].Entity < cs[j].Entity
		}
		return cs[i].Class < cs[j].Class
	})
}

// sortVotes orders votes canonically (entity, then class).
func sortVotes(vs []proto.ProblemVote) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Entity != vs[j].Entity {
			return vs[i].Entity < vs[j].Entity
		}
		return vs[i].Class < vs[j].Class
	})
}

// --- signing ------------------------------------------------------------

// sigWriter folds values into an FNV-1a 64 hash; the zero-allocation
// "signature" stands in for an HMAC — enough to catch corruption and
// casual forgery in a simulation, with the real thing a drop-in.
type sigWriter struct{ h uint64 }

func newSig(secret uint64) *sigWriter {
	h := fnv.New64a()
	var b [8]byte
	putU64(b[:], secret)
	_, _ = h.Write(b[:])
	return &sigWriter{h: h.Sum64()}
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func (s *sigWriter) u64(v uint64) {
	const prime64 = 1099511628211
	for i := 0; i < 8; i++ {
		s.h ^= uint64(byte(v >> (8 * i)))
		s.h *= prime64
	}
}

func (s *sigWriter) int(v int) { s.u64(uint64(int64(v))) }

func (s *sigWriter) str(v string) {
	const prime64 = 1099511628211
	for i := 0; i < len(v); i++ {
		s.h ^= uint64(v[i])
		s.h *= prime64
	}
	// Length terminator so ("ab","c") never collides with ("a","bc").
	s.u64(uint64(len(v)))
}

// SignVote computes a vote's signature under the deployment secret.
func SignVote(secret uint64, v proto.ProblemVote) uint64 {
	s := newSig(secret)
	s.int(v.Node)
	s.int(v.Window)
	s.str(v.Entity)
	s.int(v.Class)
	s.int(v.Severity)
	s.int(v.Count)
	s.int(v.Evidence)
	s.u64(v.Version)
	return s.h
}

// SignBatch computes a batch's signature over its header and every vote
// and coverage claim (votes by their own signatures, which already bind
// their fields).
func SignBatch(secret uint64, b proto.VoteBatch) uint64 {
	s := newSig(secret)
	s.int(b.Node)
	s.int(b.Window)
	s.int(b.Proto)
	s.u64(b.Version)
	for _, v := range b.Votes {
		s.u64(v.Sig)
	}
	for _, c := range b.Covered {
		s.str(c.Entity)
		s.int(c.Class)
	}
	return s.h
}

// VerifyBatch checks a batch's signature chain: the batch signature and
// every vote signature must verify under the secret, and every vote must
// carry the batch's node and protocol version.
func VerifyBatch(secret uint64, b proto.VoteBatch) error {
	if b.Proto != proto.FedVersion {
		return fmt.Errorf("fed: batch from node %d speaks proto %d, want %d", b.Node, b.Proto, proto.FedVersion)
	}
	if SignBatch(secret, b) != b.Sig {
		return fmt.Errorf("fed: batch node=%d window=%d signature mismatch", b.Node, b.Window)
	}
	for i, v := range b.Votes {
		if v.Node != b.Node {
			return fmt.Errorf("fed: batch node=%d carries vote %d claiming node %d", b.Node, i, v.Node)
		}
		if SignVote(secret, v) != v.Sig {
			return fmt.Errorf("fed: vote %d in batch node=%d window=%d signature mismatch", i, b.Node, b.Window)
		}
	}
	return nil
}
