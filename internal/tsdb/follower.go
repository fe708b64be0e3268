// Replication: a DB opened with Config.JournalCapacity > 0 keeps a
// bounded append journal — one entry per mutation, in mutation order —
// and Followers replay it to maintain bit-identical read replicas.
// Because every tier (raw ring, sealed window/coarse buckets, quantile
// ladder, count-min) is a pure fold over the append order, replaying the
// journal through the normal Append/AppendSketch path reproduces the
// primary's state exactly: identical Range results, identical quantiles,
// identical sketch error bounds, identical eviction counters. A follower
// that has fallen off the journal's retained tail (or follows a
// journal-less DB) resynchronizes with a deep-copy Snapshot instead.
//
// The serving tier points every API range/quantile read at a Follower,
// so heavy readers contend on the replica's lock, never the primary's
// ingest path; Lag() feeds the API's admission control and reads the
// primary's journal seq without its lock.
package tsdb

import (
	"sync"

	"rpingmesh/internal/sim"
)

// journalOp tags one journal entry with the mutation it replays as.
type journalOp uint8

const (
	opPoint  journalOp = iota // exact tier: Append(name, t, v)
	opSketch                  // sketch tier: AppendSketch(name, t, v)
	opCount                   // count-min: counts.Add(name, v) + ingested += v
)

type journalEntry struct {
	op   journalOp
	name string
	t    sim.Time
	v    float64
}

// journal appends one entry when journaling is enabled. Caller holds
// db.mu for writing.
func (db *DB) journal(op journalOp, name string, t sim.Time, v float64) {
	// jseq counts every mutation even with journaling off, so DeltaSince
	// can tell "nothing new" apart from "can't serve it" and followers of
	// journal-less primaries fall back to snapshots instead of stalling.
	db.jseq++
	if len(db.jr.buf) == 0 {
		return
	}
	db.jr.push(journalEntry{op: op, name: name, t: t, v: v})
}

// unlock releases the write lock taken by a journaling mutator, first
// publishing jseq for JournalSeq's lock-free read.
func (db *DB) unlock() {
	db.pubSeq.Store(db.jseq)
	db.mu.Unlock()
}

// JournalSeq reports how many mutations have ever been journaled; entry
// i (1-based) is the i-th mutation since Open. It takes no lock: the
// answer is the count as of the last completed write, which is all a
// staleness signal needs, and a reader asking for it must not wait out
// an ingest batch.
func (db *DB) JournalSeq() uint64 { return db.pubSeq.Load() }

// DeltaSince returns a copy of the journal entries after seq (exclusive)
// and the seq of the last entry returned. ok is false when the journal
// has already evicted part of that span — or journaling is off — and the
// caller must resynchronize via Snapshot.
func (db *DB) DeltaSince(seq uint64) (ents []journalEntry, last uint64, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if seq >= db.jseq {
		return nil, db.jseq, true
	}
	oldest := db.jseq - uint64(db.jr.n) // seq already applied before the retained tail
	if len(db.jr.buf) == 0 || seq < oldest {
		return nil, db.jseq, false
	}
	skip := int(seq - oldest)
	ents = make([]journalEntry, db.jr.n-skip)
	for i := range ents {
		ents[i] = db.jr.at(skip + i)
	}
	return ents, db.jseq, true
}

// Snapshot deep-copies the store (journaling stripped — replicas are
// leaves) together with the journal seq the copy corresponds to.
func (db *DB) Snapshot() (*DB, uint64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	cfg := db.cfg
	cfg.JournalCapacity = 0
	c := Open(cfg)
	for name, se := range db.s {
		c.s[name] = se.clone()
	}
	for name, ss := range db.sk {
		c.sk[name] = ss.clone()
	}
	c.counts = db.counts.Clone()
	c.ingested = db.ingested
	return c, db.jseq
}

func (r *ring[T]) clone() ring[T] {
	out := *r
	out.buf = append([]T(nil), r.buf...)
	return out
}

func (se *series) clone() *series {
	out := *se
	out.raw = se.raw.clone()
	out.win = se.win.clone()
	out.coarse = se.coarse.clone()
	return &out
}

func (ss *sketchSeries) clone() *sketchSeries {
	out := *ss
	out.qs = ss.qs.Clone()
	out.win = ss.win.clone()
	return &out
}

// FollowerStats counts a follower's synchronization activity.
type FollowerStats struct {
	AppliedSeq uint64 `json:"applied_seq"`
	Applied    uint64 `json:"applied_entries"`
	Deltas     uint64 `json:"delta_batches"`
	Snapshots  uint64 `json:"snapshots"`
}

// Follower is a read replica of a primary DB. It satisfies the same
// query interface as *DB (Series/Latest/Scan/Range/Quantile/
// QuantileWithError/Stats/CountEstimate), answering everything from its
// private replica; CatchUp pulls the primary's journal delta (or a full
// snapshot after falling off the retained tail) and replays it through
// the normal append path, which reproduces the primary bit for bit.
type Follower struct {
	src *DB

	mu sync.Mutex
	db *DB
	st FollowerStats
}

// NewFollower builds an empty follower of src. It starts at seq 0 and
// converges on the first CatchUp — via delta replay when the journal
// still retains everything, via snapshot otherwise.
func NewFollower(src *DB) *Follower {
	cfg := src.cfg
	cfg.JournalCapacity = 0
	return &Follower{src: src, db: Open(cfg)}
}

// CatchUp synchronizes the replica with the primary and reports how many
// journal entries it applied (snapshot resyncs count the snapshot, not
// entries). With no concurrent writers it leaves Lag() == 0.
func (f *Follower) CatchUp() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	applied := 0
	for {
		ents, last, ok := f.src.DeltaSince(f.st.AppliedSeq)
		if !ok {
			db, seq := f.src.Snapshot()
			f.db = db
			f.st.AppliedSeq = seq
			f.st.Snapshots++
			continue
		}
		if len(ents) == 0 {
			return applied
		}
		for _, e := range ents {
			f.applyEntry(e)
		}
		applied += len(ents)
		f.st.Applied += uint64(len(ents))
		f.st.Deltas++
		f.st.AppliedSeq = last
	}
}

func (f *Follower) applyEntry(e journalEntry) {
	switch e.op {
	case opPoint:
		f.db.Append(e.name, e.t, e.v)
	case opSketch:
		f.db.AppendSketch(e.name, e.t, e.v)
	case opCount:
		f.db.mu.Lock()
		f.db.counts.Add(e.name, uint64(e.v))
		f.db.ingested += uint64(e.v)
		f.db.mu.Unlock()
	}
}

// Lag reports how many journal entries the replica trails the primary —
// the staleness signal the API's admission control sheds on.
func (f *Follower) Lag() uint64 {
	f.mu.Lock()
	applied := f.st.AppliedSeq
	f.mu.Unlock()
	seq := f.src.JournalSeq()
	if seq <= applied {
		return 0
	}
	return seq - applied
}

// FollowerStats snapshots the synchronization counters.
func (f *Follower) FollowerStats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

// store returns the current replica; CatchUp may swap it on snapshot
// resync, so readers grab the pointer under the follower lock and then
// rely on the replica DB's own locking.
func (f *Follower) store() *DB {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.db
}

// Series lists the replica's series names, sorted.
func (f *Follower) Series() []string { return f.store().Series() }

// Latest returns the replica's most recent point of a series.
func (f *Follower) Latest(name string) (Point, bool) { return f.store().Latest(name) }

// Scan visits the replica's points under the replica's read lock; see
// DB.Scan.
func (f *Follower) Scan(name string, from, to sim.Time, fn func(Point)) (found bool) {
	return f.store().Scan(name, from, to, fn)
}

// Range scans the replica; see DB.Range.
func (f *Follower) Range(name string, from, to sim.Time) []Point {
	return f.store().Range(name, from, to)
}

// Quantile answers from the replica; see DB.Quantile.
func (f *Follower) Quantile(name string, from, to sim.Time, q float64) (float64, bool) {
	return f.store().Quantile(name, from, to, q)
}

// QuantileWithError answers from the replica; see DB.QuantileWithError.
func (f *Follower) QuantileWithError(name string, from, to sim.Time, q float64) (float64, float64, bool) {
	return f.store().QuantileWithError(name, from, to, q)
}

// Stats snapshots the replica store.
func (f *Follower) Stats() Stats { return f.store().Stats() }

// CountEstimate reports the replica's count-min estimate for a device.
func (f *Follower) CountEstimate(dev string) uint64 { return f.store().CountEstimate(dev) }
