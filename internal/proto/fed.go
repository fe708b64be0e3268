// Federation messages: the inter-node protocol of the internal/fed
// coordination tier. N peer controller/analyzer nodes — one per pod or
// region, each watching its own probe shard — exchange these in process
// (fed.Deploy) to fold per-node problem votes into globally confirmed
// incidents.
//
// The protocol is deliberately small: Heartbeat carries liveness +
// replication progress (leader election and failover are derived from
// heartbeats alone), VoteBatch carries one node's problem votes and
// coverage claims for one analysis window, and Rounds are the committed
// log a node that rejoined after a partition replays to catch up.
package proto

import "rpingmesh/internal/sim"

// FedVersion is the federation protocol version, carried on every vote
// batch so replicas can refuse records from a future protocol.
const FedVersion = 1

// ProblemVote is one node's claim that one entity (an alert.Key entity
// string: "dev:…", "host:…", "link:N" or "service") suffered one problem
// class during one local analysis window. Class and Severity carry the
// integer values of analyzer.ProblemKind and alert.Severity; proto stays
// below both packages in the import graph, so they travel as ints and
// internal/fed owns the round trip.
type ProblemVote struct {
	Node     int    `json:"node"`
	Window   int    `json:"window"`
	Entity   string `json:"entity"`
	Class    int    `json:"class"`
	Severity int    `json:"severity"`
	// Count is how many Problems folded into this vote; Evidence is the
	// largest anomalous-probe evidence among them.
	Count    int `json:"count"`
	Evidence int `json:"evidence"`
	// Version is the emitting node's monotone vote sequence number; Sig
	// authenticates the vote fields under the deployment secret
	// (fed.SignVote).
	Version uint64 `json:"version"`
	Sig     uint64 `json:"sig"`
}

// CoverClaim declares that a node's probes were in a position to detect
// problems of one class on one entity this window — the quorum
// denominator. Only nodes that cover an entity count toward its quorum:
// a node whose probes never traverse link 12 can neither confirm nor
// deny a problem there.
type CoverClaim struct {
	Entity string `json:"entity"`
	Class  int    `json:"class"`
}

// VoteBatch is one node's complete output for one local analysis window:
// every problem vote plus every coverage claim. Batches with zero votes
// still matter — their coverage claims are how a healthy vantage point
// outvotes a hallucinating one.
type VoteBatch struct {
	Node    int      `json:"node"`
	Window  int      `json:"window"`
	Proto   int      `json:"proto"`
	Version uint64   `json:"version"`
	Sent    sim.Time `json:"sent"`

	Votes   []ProblemVote `json:"votes,omitempty"`
	Covered []CoverClaim  `json:"covered,omitempty"`

	// Sig authenticates the batch header and every vote/claim in it
	// (fed.SignBatch).
	Sig uint64 `json:"sig"`
}

// Heartbeat is the periodic liveness + progress beacon. AppliedSeq is
// how far the sender has applied the committed round log; Leader is who
// the sender currently follows. Leader election needs nothing else:
// the leader is the lowest-indexed live node whose AppliedSeq is not
// behind any live peer's.
type Heartbeat struct {
	Node       int    `json:"node"`
	Window     int    `json:"window"`
	AppliedSeq uint64 `json:"applied_seq"`
	Leader     int    `json:"leader"`
}

// Round is one committed coordination step: the vote batches the leader
// accepted for one global window, hash-chained so every replica can
// verify it extends the exact log it already holds. Identical (Seq,
// Digest) on two replicas proves identical incident history up to Seq.
type Round struct {
	Seq        uint64      `json:"seq"`
	Window     int         `json:"window"`
	Leader     int         `json:"leader"`
	PrevDigest uint64      `json:"prev_digest"`
	Digest     uint64      `json:"digest"`
	Batches    []VoteBatch `json:"batches,omitempty"`
}
