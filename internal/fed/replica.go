package fed

import (
	"fmt"
	"sort"

	"rpingmesh/internal/alert"
	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
)

// maxLogRounds bounds the retained round log. A follower further behind
// than this cannot be caught up incrementally and would need a snapshot
// transfer; at one round per 20 s window the default retains a day.
const maxLogRounds = 4096

// voteRec is the evaluator's memory of one node's latest vote for one
// entity/class.
type voteRec struct {
	window   int
	sev      alert.Severity
	count    int
	evidence int
}

// entState is the evaluator's per-(entity, class) state: who voted and
// who covered, each with the window they last did.
type entState struct {
	votes map[int]voteRec
	cover map[int]int
}

// DropStats accounts for every vote a replica's commit path refused to
// fold — the "accounted as dropped" leg of the vote conservation law.
type DropStats struct {
	// Deduped votes arrived in a (node, window) batch already committed
	// (retransmission after an ack was lost).
	Deduped uint64
	// Expired votes arrived older than the overlap horizon — they could
	// no longer count toward any quorum.
	Expired uint64
	// Rejected votes failed signature or protocol-version verification.
	Rejected uint64
}

// Total sums all drop legs.
func (d DropStats) Total() uint64 { return d.Deduped + d.Expired + d.Rejected }

// Replica is the replicated coordination state machine every node runs:
// the hash-chained round log, the quorum evaluator folding committed
// vote rounds, and the node-local copy of the *global* alert.Engine the
// evaluator feeds. Identical logs produce identical incident timelines
// on every replica — that, not state transfer, is how failover keeps
// the incident history intact.
//
// Replica is not safe for concurrent use; the deployment's coordination
// step (or the live daemon's window loop) drives it from one goroutine.
type Replica struct {
	cfg       Config
	windowDur sim.Time

	log     []proto.Round
	logBase uint64 // Seq of log[0] (log may be trimmed)
	applied uint64
	digest  uint64

	ents map[voteKey]*entState
	seen map[[2]int]bool // (node, window) batches already committed

	engine   *alert.Engine
	timeline []string
	tlDigest uint64

	votesCounted uint64
	drops        DropStats
}

// NewReplica builds a replica. windowDur is the global analysis window
// length; it only stamps synthesized report times, so any positive value
// works for wall-clock deployments.
func NewReplica(cfg Config, windowDur sim.Time) *Replica {
	cfg.setDefaults()
	if windowDur <= 0 {
		windowDur = 20 * sim.Second
	}
	r := &Replica{
		cfg:       cfg,
		windowDur: windowDur,
		ents:      make(map[voteKey]*entState),
		seen:      make(map[[2]int]bool),
		engine:    alert.NewEngine(cfg.Alert),
		tlDigest:  newSig(cfg.Secret).h,
	}
	r.engine.AddNotifier(alert.NotifierFunc(r.recordEvent))
	return r
}

// recordEvent appends one alert transition to the replica's timeline and
// folds it into the rolling timeline digest — the quantity two replicas
// (or two runs) compare to prove bit-identical incident histories.
func (r *Replica) recordEvent(ev alert.Event) {
	line := fmt.Sprintf("w%d %s #%d %s sev=%s",
		ev.Window, ev.Type, ev.Incident.ID, ev.Incident.Key, ev.Incident.Severity)
	r.timeline = append(r.timeline, line)
	s := &sigWriter{h: r.tlDigest}
	s.str(line)
	r.tlDigest = s.h
}

// Engine exposes the replica's global incident engine (console backend).
func (r *Replica) Engine() *alert.Engine { return r.engine }

// AppliedSeq is the highest committed round sequence number applied.
func (r *Replica) AppliedSeq() uint64 { return r.applied }

// Digest is the hash-chain head after the last applied round.
func (r *Replica) Digest() uint64 { return r.digest }

// Drops snapshots the commit path's drop accounting.
func (r *Replica) Drops() DropStats { return r.drops }

// TimelineDigest summarizes the whole incident history in one value.
func (r *Replica) TimelineDigest() uint64 { return r.tlDigest }

// Seen reports whether a (node, window) vote batch is already committed.
func (r *Replica) Seen(node, window int) bool {
	return r.seen[[2]int{node, window}]
}

// RoundsSince returns the committed rounds with Seq > seq, for a lagging
// replica's catch-up. Nil if the replica has nothing newer or the
// suffix was trimmed past the request.
func (r *Replica) RoundsSince(seq uint64) []proto.Round {
	if seq >= r.applied || len(r.log) == 0 {
		return nil
	}
	if seq+1 < r.logBase {
		return nil // trimmed beyond reach; needs a snapshot, not a suffix
	}
	start := int(seq + 1 - r.logBase)
	out := make([]proto.Round, len(r.log)-start)
	copy(out, r.log[start:])
	return out
}

// roundDigest chains one round's content onto prev. Batches contribute
// their signatures, which already bind every vote and claim.
func roundDigest(secret, prev uint64, rd *proto.Round) uint64 {
	s := newSig(secret)
	s.u64(prev)
	s.u64(rd.Seq)
	s.int(rd.Window)
	s.int(rd.Leader)
	for _, b := range rd.Batches {
		s.u64(b.Sig)
	}
	return s.h
}

// Commit builds, applies and returns the next round from the accepted
// batches — the leader's step. Batches are canonically ordered, verified,
// deduplicated against the committed log and expired against the overlap
// horizon here, so the round broadcast to followers is exactly what this
// replica folded. The drop legs land in Drops().
func (r *Replica) Commit(leader, window int, batches []proto.VoteBatch) (proto.Round, error) {
	sort.Slice(batches, func(i, j int) bool {
		if batches[i].Node != batches[j].Node {
			return batches[i].Node < batches[j].Node
		}
		if batches[i].Window != batches[j].Window {
			return batches[i].Window < batches[j].Window
		}
		return batches[i].Version < batches[j].Version
	})
	accepted := make([]proto.VoteBatch, 0, len(batches))
	for _, b := range batches {
		switch {
		case VerifyBatch(r.cfg.Secret, b) != nil:
			r.drops.Rejected += uint64(len(b.Votes))
		case r.Seen(b.Node, b.Window):
			r.drops.Deduped += uint64(len(b.Votes))
		case b.Window <= window-r.cfg.VoteOverlap:
			r.drops.Expired += uint64(len(b.Votes))
		default:
			accepted = append(accepted, b)
		}
	}
	rd := proto.Round{
		Seq: r.applied + 1, Window: window, Leader: leader,
		PrevDigest: r.digest, Batches: accepted,
	}
	rd.Digest = roundDigest(r.cfg.Secret, r.digest, &rd)
	if err := r.Apply(rd); err != nil {
		return proto.Round{}, err
	}
	return rd, nil
}

// Apply folds one committed round: verify the chain, fold every batch's
// votes and coverage into the evaluator, then run the quorum rule and
// feed the synthesized window into the alert engine. Returns an error —
// without mutating state — if the round does not extend this replica's
// log (a gap, a replay, or a digest divergence; the chaos invariants
// treat any of these as a federation bug).
func (r *Replica) Apply(rd proto.Round) error {
	if rd.Seq != r.applied+1 {
		return fmt.Errorf("fed: round seq %d does not extend applied %d", rd.Seq, r.applied)
	}
	if rd.PrevDigest != r.digest {
		return fmt.Errorf("fed: round %d prev-digest %x disagrees with log head %x", rd.Seq, rd.PrevDigest, r.digest)
	}
	if want := roundDigest(r.cfg.Secret, r.digest, &rd); rd.Digest != want {
		return fmt.Errorf("fed: round %d digest %x, recomputed %x (diverged or tampered log)", rd.Seq, rd.Digest, want)
	}
	for _, b := range rd.Batches {
		if err := VerifyBatch(r.cfg.Secret, b); err != nil {
			return fmt.Errorf("fed: committed round %d holds unverifiable batch: %w", rd.Seq, err)
		}
	}

	for _, b := range rd.Batches {
		r.seen[[2]int{b.Node, b.Window}] = true
		r.votesCounted += uint64(len(b.Votes))
		for _, c := range b.Covered {
			st := r.ent(voteKey{Entity: c.Entity, Class: analyzer.ProblemKind(c.Class)})
			if w, ok := st.cover[b.Node]; !ok || b.Window > w {
				st.cover[b.Node] = b.Window
			}
		}
		for _, v := range b.Votes {
			st := r.ent(voteKey{Entity: v.Entity, Class: analyzer.ProblemKind(v.Class)})
			rec := voteRec{window: v.Window, sev: alert.Severity(v.Severity), count: v.Count, evidence: v.Evidence}
			if old, ok := st.votes[b.Node]; !ok || rec.window > old.window ||
				(rec.window == old.window && rec.sev > old.sev) {
				st.votes[b.Node] = rec
			}
			// A voting node evidently observed the entity: count it as
			// covering even if its coverage claim was pruned.
			if w, ok := st.cover[b.Node]; !ok || v.Window > w {
				st.cover[b.Node] = v.Window
			}
		}
	}

	r.applied = rd.Seq
	r.digest = rd.Digest
	if len(r.log) == 0 {
		r.logBase = rd.Seq
	}
	r.log = append(r.log, rd)
	if over := len(r.log) - maxLogRounds; over > 0 {
		r.log = append(r.log[:0], r.log[over:]...)
		r.logBase += uint64(over)
	}

	r.evaluate(rd.Window)
	return nil
}

// ent returns (creating) the state for one key.
func (r *Replica) ent(k voteKey) *entState {
	st, ok := r.ents[k]
	if !ok {
		st = &entState{votes: make(map[int]voteRec), cover: make(map[int]int)}
		r.ents[k] = st
	}
	return st
}

// evaluate prunes horizons, applies the quorum rule at global window w,
// and feeds the synthesized problem set into the alert engine as one
// WindowReport. Quorum: an entity/class is confirmed iff the nodes that
// voted for it within VoteOverlap windows number at least
// min(Q, #nodes covering it within CoverageHorizon), floor 1.
func (r *Replica) evaluate(w int) {
	keys := make([]voteKey, 0, len(r.ents))
	for k, st := range r.ents {
		for n, rec := range st.votes {
			if rec.window <= w-r.cfg.VoteOverlap {
				delete(st.votes, n)
			}
		}
		for n, cw := range st.cover {
			if cw <= w-r.cfg.CoverageHorizon {
				delete(st.cover, n)
			}
		}
		if len(st.votes) == 0 && len(st.cover) == 0 {
			delete(r.ents, k)
			continue
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Entity != keys[j].Entity {
			return keys[i].Entity < keys[j].Entity
		}
		return keys[i].Class < keys[j].Class
	})
	for nw := range r.seen {
		if nw[1] <= w-r.cfg.VoteOverlap-r.cfg.HeartbeatMiss {
			delete(r.seen, nw)
		}
	}

	rep := analyzer.WindowReport{
		Index: w,
		Start: sim.Time(w) * r.windowDur,
		End:   sim.Time(w+1) * r.windowDur,
	}
	for _, k := range keys {
		st := r.ents[k]
		if len(st.votes) == 0 {
			continue
		}
		need := r.cfg.Quorum
		if n := len(st.cover); n < need {
			need = n
		}
		if need < 1 {
			need = 1
		}
		if len(st.votes) < need {
			continue
		}
		var sev alert.Severity
		evidence := 0
		first := true
		for _, rec := range st.votes {
			if first || rec.sev > sev {
				sev = rec.sev
			}
			if rec.evidence > evidence {
				evidence = rec.evidence
			}
			first = false
		}
		rep.Problems = append(rep.Problems, k.problemOf(sev, evidence))
	}
	r.engine.Observe(rep)
}
