package fed

import (
	"strings"
	"testing"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/proto"
)

const testSecret = 0xdecafbad

func testBatch(node, window int, entities ...string) proto.VoteBatch {
	b := proto.VoteBatch{
		Node: node, Window: window, Proto: proto.FedVersion,
		Version: uint64(window + 1),
	}
	for _, e := range entities {
		v := proto.ProblemVote{
			Node: node, Window: window, Entity: e,
			Class: int(analyzer.ProblemSwitchLink), Severity: 2,
			Count: 1, Evidence: 3, Version: b.Version,
		}
		v.Sig = SignVote(testSecret, v)
		b.Votes = append(b.Votes, v)
		b.Covered = append(b.Covered, proto.CoverClaim{Entity: e, Class: int(analyzer.ProblemSwitchLink)})
	}
	sortVotes(b.Votes)
	sortClaims(b.Covered)
	b.Sig = SignBatch(testSecret, b)
	return b
}

func testReplica() *Replica {
	return NewReplica(Config{Nodes: 3, Quorum: 2, Secret: testSecret}, 0)
}

func TestReplicaQuorumRule(t *testing.T) {
	r := testReplica()
	// Window 0: only node 0 votes; nodes 1 and 2 cover the entity but
	// stay silent — below quorum, no incident.
	b0 := testBatch(0, 0, "link:7")
	b1 := testBatch(1, 0)
	b1.Covered = []proto.CoverClaim{{Entity: "link:7", Class: int(analyzer.ProblemSwitchLink)}}
	b1.Sig = SignBatch(testSecret, b1)
	b2 := testBatch(2, 0)
	b2.Covered = []proto.CoverClaim{{Entity: "link:7", Class: int(analyzer.ProblemSwitchLink)}}
	b2.Sig = SignBatch(testSecret, b2)
	if _, err := r.Commit(0, 0, []proto.VoteBatch{b0, b1, b2}); err != nil {
		t.Fatal(err)
	}
	if got := len(r.timeline); got != 0 {
		t.Fatalf("single vote among three covering nodes opened an incident: %v", r.timeline)
	}

	// Window 1: a second node votes — quorum met, incident opens.
	if _, err := r.Commit(0, 1, []proto.VoteBatch{testBatch(0, 1, "link:7"), testBatch(1, 1, "link:7")}); err != nil {
		t.Fatal(err)
	}
	tl := r.timeline
	if len(tl) != 1 || !strings.Contains(tl[0], "open") || !strings.Contains(tl[0], "link:7") {
		t.Fatalf("quorum votes did not open exactly one incident: %v", tl)
	}
	if r.votesCounted != 3 {
		t.Fatalf("VotesCounted = %d, want 3", r.votesCounted)
	}
}

func TestReplicaRejectsTamperedBatch(t *testing.T) {
	r := testReplica()
	b := testBatch(0, 0, "link:1")
	b.Votes[0].Severity = 3 // tamper after signing
	if _, err := r.Commit(0, 0, []proto.VoteBatch{b}); err != nil {
		t.Fatal(err)
	}
	if d := r.Drops(); d.Rejected != 1 {
		t.Fatalf("tampered batch not rejected: %+v", d)
	}
	if r.votesCounted != 0 {
		t.Fatal("tampered vote was counted")
	}

	// A vote claiming another node's identity inside a batch must fail
	// verification outright.
	b2 := testBatch(0, 1, "link:1")
	b2.Votes[0].Node = 1
	b2.Votes[0].Sig = SignVote(testSecret, b2.Votes[0])
	b2.Sig = SignBatch(testSecret, b2)
	if err := VerifyBatch(testSecret, b2); err == nil {
		t.Fatal("batch smuggling another node's vote verified")
	}
}

func TestReplicaDedupAndExpiry(t *testing.T) {
	r := testReplica()
	b := testBatch(0, 0, "link:1")
	if _, err := r.Commit(0, 0, []proto.VoteBatch{b}); err != nil {
		t.Fatal(err)
	}
	// Same (node, window) again — a retransmission — must dedup.
	if _, err := r.Commit(0, 1, []proto.VoteBatch{b}); err != nil {
		t.Fatal(err)
	}
	if d := r.Drops(); d.Deduped != 1 {
		t.Fatalf("retransmitted batch not deduped: %+v", d)
	}

	// A batch older than the overlap horizon must be expired, not folded.
	old := testBatch(1, 0, "link:2")
	if _, err := r.Commit(0, 10, []proto.VoteBatch{old}); err != nil {
		t.Fatal(err)
	}
	if d := r.Drops(); d.Expired != 1 {
		t.Fatalf("stale batch not expired: %+v", d)
	}
	if r.votesCounted != 1 {
		t.Fatalf("VotesCounted = %d, want 1 (only the first commit)", r.votesCounted)
	}
}

func TestReplicaChainVerification(t *testing.T) {
	r := testReplica()
	rd1, err := r.Commit(0, 0, []proto.VoteBatch{testBatch(0, 0, "link:1")})
	if err != nil {
		t.Fatal(err)
	}
	rd2, err := r.Commit(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	follower := testReplica()
	// Gap: applying round 2 before round 1 must fail without mutating.
	if err := follower.Apply(rd2); err == nil {
		t.Fatal("gap apply succeeded")
	}
	if follower.AppliedSeq() != 0 {
		t.Fatal("failed apply mutated state")
	}
	if err := follower.Apply(rd1); err != nil {
		t.Fatal(err)
	}
	// Tampered digest must fail.
	bad := rd2
	bad.Digest ^= 1
	if err := follower.Apply(bad); err == nil {
		t.Fatal("tampered round applied")
	}
	if err := follower.Apply(rd2); err != nil {
		t.Fatal(err)
	}
	if follower.Digest() != r.Digest() || follower.AppliedSeq() != r.AppliedSeq() {
		t.Fatal("follower did not converge to leader log")
	}
	// Replay of an already-applied round must fail (seq does not extend).
	if err := follower.Apply(rd1); err == nil {
		t.Fatal("replayed round applied twice")
	}
}

func TestReplicaRoundsSince(t *testing.T) {
	r := testReplica()
	for w := 0; w < 5; w++ {
		if _, err := r.Commit(0, w, nil); err != nil {
			t.Fatal(err)
		}
	}
	rounds := r.RoundsSince(2)
	if len(rounds) != 3 || rounds[0].Seq != 3 || rounds[2].Seq != 5 {
		t.Fatalf("RoundsSince(2) = %d rounds, first seq %d", len(rounds), rounds[0].Seq)
	}
	if r.RoundsSince(5) != nil {
		t.Fatal("RoundsSince(head) should be nil")
	}

	// A caught-up follower replaying the suffix converges.
	f := testReplica()
	for _, rd := range r.RoundsSince(0) {
		if err := f.Apply(rd); err != nil {
			t.Fatal(err)
		}
	}
	if f.Digest() != r.Digest() {
		t.Fatal("suffix replay diverged")
	}
}

// TestReplicaQuorumClampsToCoverage: when only one node covers an
// entity, its lone vote must open the incident (need = min(Q, cover)).
func TestReplicaQuorumClampsToCoverage(t *testing.T) {
	r := testReplica()
	if _, err := r.Commit(0, 0, []proto.VoteBatch{testBatch(2, 0, "dev:lonely")}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range r.timeline {
		if strings.Contains(l, "open") && strings.Contains(l, "dev:lonely") {
			found = true
		}
	}
	if !found {
		t.Fatalf("single-coverage entity never opened: %v", r.timeline)
	}
}
