// Package tsdb is the bounded in-memory time-series store behind the
// ingest tier — the role the paper's production database plays for
// R-Pingmesh's per-window SLA aggregates. Every series holds three
// fixed-size ring buffers at increasing coarseness:
//
//	raw    — every appended point, verbatim
//	window — one aggregate bucket per WindowStep (default 20 s, the
//	         Analyzer window)
//	coarse — one aggregate bucket per CoarseStep (default 5 min)
//
// Appends fold each point into the open window and coarse buckets as they
// arrive, so evicting a raw point loses no information the coarser tiers
// carry; memory is O(retention), not O(uptime). Queries (range scan,
// latest, quantile-over-range) answer from the finest tier that still
// covers each span, so a scan reaching past the raw horizon degrades
// gracefully into bucket means instead of failing.
//
// All methods are safe for concurrent use; timestamps are sim.Time
// nanoseconds (virtual time in simulations, wall-clock nanoseconds in the
// live daemons) and are expected non-decreasing per series — stragglers
// are folded into the currently open buckets.
package tsdb

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"rpingmesh/internal/metrics"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// Config bounds the store; zero values take the defaults.
type Config struct {
	// RawCapacity is the per-series raw ring size in points (default
	// 2048 ≈ 11 h of 20 s windows).
	RawCapacity int
	// WindowStep is the mid-tier bucket width (default 20 s).
	WindowStep sim.Time
	// WindowCapacity is the per-series mid-tier ring size in buckets
	// (default 4096 ≈ 22 h).
	WindowCapacity int
	// CoarseStep is the coarse-tier bucket width (default 5 min).
	CoarseStep sim.Time
	// CoarseCapacity is the per-series coarse ring size (default 4096
	// ≈ two weeks).
	CoarseCapacity int
	// SketchBytesPerSeries is the enforced per-series byte budget of the
	// sketch tier (default 32 KiB). Every sketch series allocates its
	// quantile ladder and window ring once, sized to fit; Stats reports
	// both the budget and the actual footprint so the chaos invariants
	// can hold the store to it.
	SketchBytesPerSeries int
	// SketchWindowBuckets is the sketch tier's sealed window-bucket ring
	// size (default 64) — the coarse Range view of a sketch series.
	SketchWindowBuckets int
	// JournalCapacity, when > 0, keeps a bounded ring of the last N
	// mutations that Followers replay to maintain read replicas
	// (follower.go). 0 — the default — disables journaling entirely:
	// the write path pays one nil check and replicas resync via full
	// Snapshot instead.
	JournalCapacity int
}

func (c *Config) setDefaults() {
	if c.RawCapacity <= 0 {
		c.RawCapacity = 2048
	}
	if c.WindowStep <= 0 {
		c.WindowStep = 20 * sim.Second
	}
	if c.WindowCapacity <= 0 {
		c.WindowCapacity = 4096
	}
	if c.CoarseStep <= 0 {
		c.CoarseStep = 5 * sim.Minute
	}
	if c.CoarseCapacity <= 0 {
		c.CoarseCapacity = 4096
	}
	if c.SketchBytesPerSeries <= 0 {
		c.SketchBytesPerSeries = 32 << 10
	}
	if c.SketchWindowBuckets <= 0 {
		c.SketchWindowBuckets = 64
	}
}

// sketchLevels derives the quantile-ladder height that fits the
// per-series budget next to the bucket ring.
func (c *Config) sketchLevels() int {
	ringBytes := c.SketchWindowBuckets * 48
	perLevel := 40 + 8*(sketchK+(sketchK+1)/2)
	levels := (c.SketchBytesPerSeries - ringBytes - 128) / perLevel
	if levels < 3 {
		levels = 3
	}
	return levels - 1 // level indexes are 0-based
}

// Point is one raw sample.
type Point struct {
	T sim.Time
	V float64
}

// Bucket is one downsampled aggregate over [Start, Start+Step).
type Bucket struct {
	Start sim.Time
	Count int64
	Sum   float64
	Min   float64
	Max   float64
	Last  float64
}

// Mean is the bucket average (0 for an empty bucket).
func (b Bucket) Mean() float64 {
	if b.Count == 0 {
		return 0
	}
	return b.Sum / float64(b.Count)
}

func (b *Bucket) fold(v float64) {
	if b.Count == 0 || v < b.Min {
		b.Min = v
	}
	if b.Count == 0 || v > b.Max {
		b.Max = v
	}
	b.Count++
	b.Sum += v
	b.Last = v
}

// ring is a fixed-capacity overwrite-oldest buffer.
type ring[T any] struct {
	buf     []T
	head    int // index of oldest
	n       int
	evicted uint64
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

func (r *ring[T]) push(v T) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = v
		r.n++
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	r.evicted++
}

// at returns the i-th element, 0 = oldest.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

type series struct {
	raw    ring[Point]
	win    ring[Bucket]
	coarse ring[Bucket]

	curWin    Bucket
	curCoarse Bucket
	haveOpen  bool

	appended uint64
	lastT    sim.Time
}

// sketchSeries is one high-cardinality series in the sketch tier: a
// budget-bounded quantile ladder for distribution queries plus a small
// sealed-window bucket ring for coarse Range views and the exact last
// point so Latest stays truthful.
type sketchSeries struct {
	qs       *QuantileSketch
	win      ring[Bucket]
	curWin   Bucket
	haveOpen bool
	last     Point
	appended uint64
}

func (ss *sketchSeries) add(cfg *Config, t sim.Time, v float64) {
	ss.appended++
	if !ss.haveOpen {
		ss.curWin = Bucket{Start: align(t, cfg.WindowStep)}
		ss.haveOpen = true
	}
	if t >= ss.curWin.Start+cfg.WindowStep {
		if ss.curWin.Count > 0 {
			ss.win.push(ss.curWin)
		}
		ss.curWin = Bucket{Start: align(t, cfg.WindowStep)}
	}
	ss.curWin.fold(v)
	if t >= ss.last.T || ss.appended == 1 {
		ss.last = Point{T: t, V: v}
	}
	ss.qs.Add(v)
}

// bytes reports the series' footprint against the budget.
func (ss *sketchSeries) bytes() int {
	return ss.qs.Bytes() + 48*cap(ss.win.buf) + 128
}

// DB is the store. The zero value is not usable; call Open.
type DB struct {
	mu  sync.RWMutex
	cfg Config
	s   map[string]*series       // exact tier: the low-cardinality analyzer series
	sk  map[string]*sketchSeries // sketch tier: high-cardinality ingest series
	// counts is the per-destination-device record counter (count-min, so
	// per-key memory is O(1) regardless of fleet size).
	counts   *CountMin
	ingested uint64

	// IngestRecords' series resolution: names built once per series.
	// Never evicted, like sk itself. memo is its per-batch scratch,
	// indexed by route.
	hostSk map[topo.HostID]namedSketch
	pathSk map[pathKey]namedSketch
	memo   []namedSketch

	// Append journal for Followers (nil buf when JournalCapacity == 0).
	jr   ring[journalEntry]
	jseq uint64
	// pubSeq is jseq as of the last write-lock release (unlock), so
	// JournalSeq — and through it Follower.Lag, which API admission runs
	// on every request — never queues behind a writer.
	pubSeq atomic.Uint64
}

// Open creates a store.
func Open(cfg Config) *DB {
	cfg.setDefaults()
	db := &DB{
		cfg:    cfg,
		s:      make(map[string]*series),
		sk:     make(map[string]*sketchSeries),
		counts: NewCountMin(4, 1024),
		hostSk: make(map[topo.HostID]namedSketch),
		pathSk: make(map[pathKey]namedSketch),
	}
	if cfg.JournalCapacity > 0 {
		db.jr = newRing[journalEntry](cfg.JournalCapacity)
	}
	return db
}

func align(t, step sim.Time) sim.Time {
	if t < 0 {
		return t - (step - 1) - (t % step)
	}
	return t - t%step
}

// Append records one point. It implements the Analyzer's MetricSink, so
// an *DB can be handed straight to Analyzer.SetMetricSink.
func (db *DB) Append(name string, t sim.Time, v float64) {
	db.mu.Lock()
	defer db.unlock()
	se, ok := db.s[name]
	if !ok {
		se = &series{
			raw:    newRing[Point](db.cfg.RawCapacity),
			win:    newRing[Bucket](db.cfg.WindowCapacity),
			coarse: newRing[Bucket](db.cfg.CoarseCapacity),
		}
		db.s[name] = se
	}
	se.appended++
	if t > se.lastT {
		se.lastT = t
	}
	se.raw.push(Point{T: t, V: v})

	// Downsample at append time: seal buckets the new point has moved
	// past, then fold it into the open ones. A straggler older than the
	// open bucket is folded into the open bucket rather than rewriting
	// sealed history.
	if !se.haveOpen {
		se.curWin = Bucket{Start: align(t, db.cfg.WindowStep)}
		se.curCoarse = Bucket{Start: align(t, db.cfg.CoarseStep)}
		se.haveOpen = true
	}
	if t >= se.curWin.Start+db.cfg.WindowStep {
		if se.curWin.Count > 0 {
			se.win.push(se.curWin)
		}
		se.curWin = Bucket{Start: align(t, db.cfg.WindowStep)}
	}
	if t >= se.curCoarse.Start+db.cfg.CoarseStep {
		if se.curCoarse.Count > 0 {
			se.coarse.push(se.curCoarse)
		}
		se.curCoarse = Bucket{Start: align(t, db.cfg.CoarseStep)}
	}
	se.curWin.fold(v)
	se.curCoarse.fold(v)
	db.journal(opPoint, name, t, v)
}

// sketchLocked fetches or creates a sketch-tier series. Caller holds
// db.mu for writing.
func (db *DB) sketchLocked(name string) *sketchSeries {
	ss, ok := db.sk[name]
	if !ok {
		ss = &sketchSeries{
			qs:  NewQuantileSketch(sketchK, db.cfg.sketchLevels()),
			win: newRing[Bucket](db.cfg.SketchWindowBuckets),
		}
		db.sk[name] = ss
	}
	return ss
}

// AppendSketch records one point into the sketch tier: bounded memory
// per series regardless of volume, approximate quantiles with a tracked
// error bound. Use it for high-cardinality names (per-host, per-device);
// the 13 analyzer series stay on the exact Append tier.
func (db *DB) AppendSketch(name string, t sim.Time, v float64) {
	db.mu.Lock()
	defer db.unlock()
	db.sketchLocked(name).add(&db.cfg, t, v)
	db.journal(opSketch, name, t, v)
}

// pathName keys a sketch series by a route's forward path:
// "path.rtt.<srcDev>><dstDev>.<fnv64a of ProbePath>". Distinct ECMP paths
// between the same device pair land in distinct series, so per-path tail
// latency stays queryable across route churn (the paper's five-tuple
// path identity, collapsed to the traced link sequence).
func pathName(src, dst topo.DeviceID, h uint64) string {
	return "path.rtt." + string(src) + ">" + string(dst) + "." + strconv.FormatUint(h, 16)
}

// pathHash is FNV-64a over the path's links, eight bytes each.
func pathHash(path []topo.LinkID) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, l := range path {
		v := uint64(l)
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

// pathKey is what a per-path series name is built from.
type pathKey struct {
	src, dst topo.DeviceID
	hash     uint64
}

// namedSketch is a sketch series with its name, resolved once per series
// by IngestRecords so a batch builds no name strings.
type namedSketch struct {
	name string
	ss   *sketchSeries
}

// hostSketchLocked resolves a host's "ingest.rtt.<host>" series. Caller
// holds db.mu for writing.
func (db *DB) hostSketchLocked(host topo.HostID) namedSketch {
	ns, ok := db.hostSk[host]
	if !ok {
		name := "ingest.rtt." + string(host)
		ns = namedSketch{name: name, ss: db.sketchLocked(name)}
		db.hostSk[host] = ns
	}
	return ns
}

// pathSketchLocked resolves a route's pathName series. Caller holds
// db.mu for writing.
func (db *DB) pathSketchLocked(rt *proto.Route) namedSketch {
	k := pathKey{src: rt.SrcDev, dst: rt.DstDev, hash: pathHash(rt.ProbePath)}
	ns, ok := db.pathSk[k]
	if !ok {
		name := pathName(k.src, k.dst, k.hash)
		ns = namedSketch{name: name, ss: db.sketchLocked(name)}
		db.pathSk[k] = ns
	}
	return ns
}

// IngestRecords implements proto.RecordSink: the ingest spine feeds
// delivered record batches straight into the sketch tier — one RTT
// quantile sketch per source host ("ingest.rtt.<host>"), one per
// interned route (pathName), and a count-min tally of records per
// destination device. Series are resolved through maps keyed by host and
// by (src, dst, path hash), once per route of the batch, so steady-state
// ingest builds no names. The batch is borrowed; no reference is
// retained.
func (db *DB) IngestRecords(b *proto.RecordBatch) {
	n := b.Len()
	if n == 0 {
		return
	}
	db.mu.Lock()
	defer db.unlock()
	db.ingested += uint64(n)
	host := db.hostSketchLocked(b.Host)
	if cap(db.memo) < b.Routes() {
		db.memo = make([]namedSketch, b.Routes())
	}
	memo := db.memo[:b.Routes()]
	for i := 0; i < n; i++ {
		rt := b.RouteAt(i)
		dev := string(rt.DstDev)
		db.counts.Add(dev, 1)
		// journal is called for every mutation — even with journaling off
		// it advances jseq, which followers of journal-less primaries need
		// to detect staleness and fall back to snapshots.
		db.journal(opCount, dev, 0, 1)
		if b.Timeout(i) {
			continue
		}
		p := &memo[b.RouteIndex(i)]
		if p.ss == nil {
			*p = db.pathSketchLocked(rt)
		}
		v := float64(b.NetworkRTT(i))
		host.ss.add(&db.cfg, b.Sent, v)
		p.ss.add(&db.cfg, b.Sent, v)
		db.journal(opSketch, host.name, b.Sent, v)
		db.journal(opSketch, p.name, b.Sent, v)
	}
	clear(memo) // route indexes are per batch: the next one resolves afresh
}

// UploadRecords implements proto.RecordSink so an *DB can subscribe to
// the ingest pipeline directly; it is IngestRecords under the interface
// name.
func (db *DB) UploadRecords(b *proto.RecordBatch) { db.IngestRecords(b) }

// CountEstimate reports the (never-under, slightly-over) number of
// records ingested toward a destination device.
func (db *DB) CountEstimate(dev string) uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.counts.Estimate(dev)
}

// Series returns the stored series names (both tiers), sorted.
func (db *DB) Series() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.s)+len(db.sk))
	for name := range db.s {
		out = append(out, name)
	}
	for name := range db.sk {
		if _, shadowed := db.s[name]; !shadowed {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Latest returns the most recent point of a series.
func (db *DB) Latest(name string) (Point, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if se, ok := db.s[name]; ok {
		if se.raw.n == 0 {
			return Point{}, false
		}
		return se.raw.at(se.raw.n - 1), true
	}
	if ss, ok := db.sk[name]; ok && ss.appended > 0 {
		return ss.last, true
	}
	return Point{}, false
}

// rawHorizon returns the oldest raw timestamp still retained.
func (se *series) rawHorizon() (sim.Time, bool) {
	if se.raw.n == 0 {
		return 0, false
	}
	return se.raw.at(0).T, true
}

// winBuckets yields sealed + open window buckets in time order.
func (se *series) winBuckets(yield func(Bucket) bool) {
	for i := 0; i < se.win.n; i++ {
		if !yield(se.win.at(i)) {
			return
		}
	}
	if se.haveOpen && se.curWin.Count > 0 {
		yield(se.curWin)
	}
}

func (se *series) coarseBuckets(yield func(Bucket) bool) {
	for i := 0; i < se.coarse.n; i++ {
		if !yield(se.coarse.at(i)) {
			return
		}
	}
	if se.haveOpen && se.curCoarse.Count > 0 {
		yield(se.curCoarse)
	}
}

// scanLocked walks [from, to] in time order, answering each span from the
// finest tier that still covers it. No instant is ever answered twice:
// a coarse bucket is used only where the window tier has evicted (and
// then suppresses the finer buckets it already covers), and buckets
// reaching past the raw horizon yield to raw points — at tier seams the
// scan may skip up to one bucket width rather than double-count.
// Caller holds db.mu.
func (db *DB) scanLocked(se *series, from, to sim.Time, onRaw func(Point), onBucket func(Bucket)) {
	horizon, haveRaw := se.rawHorizon()
	rawFrom := from
	if haveRaw && horizon > from {
		// Window horizon = start of the oldest retained window bucket.
		winHorizon := sim.Time(math.MaxInt64)
		se.winBuckets(func(b Bucket) bool {
			winHorizon = b.Start
			return false
		})
		// Coarse tier covers what the window tier evicted.
		coarseEnd := from
		se.coarseBuckets(func(b Bucket) bool {
			if b.Start+db.cfg.CoarseStep <= from || b.Start > to {
				return true
			}
			if b.Start >= winHorizon {
				return false // window tier retained from here on
			}
			if b.Start+db.cfg.CoarseStep > horizon {
				return false // raw tier takes over
			}
			onBucket(b)
			coarseEnd = b.Start + db.cfg.CoarseStep
			return true
		})
		se.winBuckets(func(b Bucket) bool {
			if b.Start+db.cfg.WindowStep <= from || b.Start > to {
				return true
			}
			if b.Start < coarseEnd {
				return true // a coarse bucket already answered this span
			}
			if b.Start+db.cfg.WindowStep > horizon {
				return false // raw tier takes over
			}
			onBucket(b)
			return true
		})
		rawFrom = horizon
	}
	for i := 0; i < se.raw.n; i++ {
		p := se.raw.at(i)
		if p.T >= rawFrom && p.T >= from && p.T <= to {
			onRaw(p)
		}
	}
}

// Scan visits [from, to] in time order, one point per retained
// observation: fn runs under the store's read lock, straight off the
// rings, so it must not call back into the store. Spans older than the
// raw horizon degrade into downsampled points — one per bucket, stamped
// at the bucket start and valued at the bucket mean. found reports
// whether the series exists at all, decided under the same lock
// acquisition as the walk, so "unknown series" and "nothing in range"
// cannot be confused across a concurrent append or replica swap.
func (db *DB) Scan(name string, from, to sim.Time, fn func(Point)) (found bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if se, ok := db.s[name]; ok {
		db.scanLocked(se, from, to, fn,
			func(b Bucket) { fn(Point{T: b.Start, V: b.Mean()}) })
		return true
	}
	if ss, ok := db.sk[name]; ok && ss.appended > 0 {
		ss.scan(from, to, fn)
		return true
	}
	return false
}

// Range is Scan collected into a slice (nil when nothing was visited).
func (db *DB) Range(name string, from, to sim.Time) []Point {
	var out []Point
	db.Scan(name, from, to, func(p Point) { out = append(out, p) })
	return out
}

// scan is the sketch tier's coarse Scan view: one mean point per sealed
// window bucket, closed by the exact last sample so the tail of a
// full-horizon scan always agrees with Latest.
func (ss *sketchSeries) scan(from, to sim.Time, fn func(Point)) {
	for i := 0; i < ss.win.n; i++ {
		b := ss.win.at(i)
		if b.Start < from || b.Start > to {
			continue
		}
		if b.Start > ss.last.T {
			break // straggler sealing: never emit past the live tail
		}
		fn(Point{T: b.Start, V: b.Mean()})
	}
	if ss.last.T >= from && ss.last.T <= to {
		fn(ss.last)
	}
}

// Quantile computes the q-quantile of a series over [from, to]. Raw
// spans are exact. Spans answered from downsampled tiers are
// approximated: each bucket contributes its count's worth of samples
// spread uniformly between its min and max (exact for uniform data,
// honest at the extremes for anything else). A bucket's contribution is
// capped at 4096 synthetic samples.
func (db *DB) Quantile(name string, from, to sim.Time, q float64) (float64, bool) {
	v, _, ok := db.QuantileWithError(name, from, to, q)
	return v, ok
}

// QuantileWithError answers like Quantile and additionally reports the
// worst-case rank-error bound of the answer as a fraction of the sample
// count: 0 for the exact tier, the quantile ladder's tracked bound for
// sketch series. Sketch series answer over their whole horizon — the
// ladder is mergeable but not range-decomposable — so from/to only gate
// whether any data exists.
func (db *DB) QuantileWithError(name string, from, to sim.Time, q float64) (float64, float64, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	se, ok := db.s[name]
	if !ok {
		if ss, ok := db.sk[name]; ok && ss.appended > 0 {
			v, ok := ss.qs.Quantile(q)
			return v, ss.qs.ErrorBound(), ok
		}
		return 0, 0, false
	}
	d := metrics.NewDistribution()
	db.scanLocked(se, from, to,
		func(p Point) { d.Add(p.V) },
		func(b Bucket) {
			n := b.Count
			if n > 4096 {
				n = 4096
			}
			if n == 1 || b.Max == b.Min {
				for k := int64(0); k < n; k++ {
					d.Add(b.Min)
				}
				return
			}
			for k := int64(0); k < n; k++ {
				d.Add(b.Min + (b.Max-b.Min)*float64(k)/float64(n-1))
			}
		})
	if d.Count() == 0 {
		return 0, 0, false
	}
	return d.Quantile(q), 0, true
}

// Stats summarizes the store's footprint and eviction activity.
type Stats struct {
	Series          int
	Appended        uint64
	RawPoints       int
	RawEvicted      uint64
	WindowBuckets   int
	WindowEvicted   uint64
	CoarseBuckets   int
	CoarseEvicted   uint64
	RetainedPoints  int // raw + buckets across tiers
	CapacityPerSeri int // raw+win+coarse capacity, the memory bound driver

	// Sketch tier accounting. SketchBytes is the tier's live footprint;
	// the enforced invariant is
	// SketchBytes <= SketchSeries * SketchBudgetPerSeries.
	SketchSeries          int
	SketchBytes           int
	SketchBudgetPerSeries int
	// SketchMaxErrBound is the worst quantile rank-error bound any
	// sketch series currently reports.
	SketchMaxErrBound float64
	// IngestedRecords counts records consumed via IngestRecords.
	IngestedRecords uint64
	CountMinBytes   int
}

// Stats snapshots the store.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	st := Stats{
		Series:                len(db.s) + len(db.sk),
		CapacityPerSeri:       db.cfg.RawCapacity + db.cfg.WindowCapacity + db.cfg.CoarseCapacity,
		SketchSeries:          len(db.sk),
		SketchBudgetPerSeries: db.cfg.SketchBytesPerSeries,
		IngestedRecords:       db.ingested,
		CountMinBytes:         db.counts.Bytes(),
	}
	for _, se := range db.s {
		st.Appended += se.appended
		st.RawPoints += se.raw.n
		st.RawEvicted += se.raw.evicted
		st.WindowBuckets += se.win.n
		st.WindowEvicted += se.win.evicted
		st.CoarseBuckets += se.coarse.n
		st.CoarseEvicted += se.coarse.evicted
	}
	for _, ss := range db.sk {
		st.Appended += ss.appended
		st.SketchBytes += ss.bytes()
		st.WindowBuckets += ss.win.n
		st.WindowEvicted += ss.win.evicted
		if eb := ss.qs.ErrorBound(); eb > st.SketchMaxErrBound {
			st.SketchMaxErrBound = eb
		}
	}
	st.RetainedPoints = st.RawPoints + st.WindowBuckets + st.CoarseBuckets
	return st
}
