// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event heap, and seeded random number streams.
//
// All of R-Pingmesh's substrates (the software RNICs, the network data
// plane, the DML service model) and the R-Pingmesh modules themselves run
// on this engine, so a thirty-minute experiment executes in seconds and
// every run is reproducible from a seed.
//
// Two execution modes exist. A standalone Engine (from New) is the classic
// single-threaded event loop. A ShardedEngine (from NewSharded) runs one
// Engine per topology pod plus a fabric shard in conservative lockstep
// windows; see sharded.go.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is virtual simulation time measured in nanoseconds since the start
// of the run. It deliberately mirrors time.Duration so the paper's real
// intervals (500ms probe timeout, 5s upload, 20s analysis window...) can be
// used verbatim.
type Time int64

// Common conversions.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// fromDuration converts a time.Duration to a sim.Time.
func fromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Duration converts a sim.Time to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return time.Duration(t).String() }

// event is the pooled record behind a scheduled callback. Events fire in
// (time, seq) order; seq breaks ties in scheduling order so the
// simulation is deterministic. The ordering key itself lives in the
// heap entry (heapEntry), not here.
//
// Event records are pooled per engine: after an event fires (or its
// cancelled record is reaped) the struct goes back on a free list. The
// generation counter protects pooled reuse from stale Handles.
type event struct {
	fn   func()
	eng  *Engine
	gen  uint64
	dead bool
}

// Handle identifies a scheduled event and allows cancellation. The zero
// Handle is valid and cancels nothing (cross-shard sends return it).
type Handle struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op (the generation counter detects
// records that have been recycled for a newer event).
func (h Handle) Cancel() {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.dead {
		return
	}
	ev.dead = true
	ev.fn = nil
	e := ev.eng
	e.deadCount++
	// Lazy compaction: cancelled records are normally reaped when popped,
	// but a workload that cancels most of what it schedules (10k probe
	// timeouts, say) would otherwise grow the heap without bound. Rebuild
	// once the majority of the heap is dead.
	if e.deadCount > len(e.queue)/2 && len(e.queue) > compactMinHeap {
		e.compact()
	}
}

// compactMinHeap is the heap size below which compaction is not worth the
// rebuild (popping a few dead records lazily is cheaper).
const compactMinHeap = 64

// heapEntry is one slot of the event heap. The (at, seq) key is stored
// inline so sift comparisons never follow the record pointer.
type heapEntry struct {
	at  Time
	seq uint64
	ev  *event
}

func (a heapEntry) less(b heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventHeap is an inline 4-ary min-heap on (at, seq). Four children per
// node halve the depth of a binary heap, so a pop does half the sift
// levels, and a node's children share a cache line or two.
type eventHeap []heapEntry

func (h *eventHeap) push(x heapEntry) {
	*h = append(*h, x)
	h.up(len(*h) - 1)
}

// pop removes and returns the minimum entry. The heap must be non-empty.
func (h *eventHeap) pop() heapEntry {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = heapEntry{}
	*h = q[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

func (h eventHeap) up(i int) {
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

func (h eventHeap) down(i int) {
	n := len(h)
	x := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].less(h[m]) {
				m = j
			}
		}
		if !h[m].less(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

// init restores the heap property over arbitrary contents.
func (h eventHeap) init() {
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		h.down(i)
	}
}

// bufEvent is an event generated inside a parallel shard window whose
// destination heap belongs to another shard. It is buffered in the source
// engine's per-destination outbox bucket and applied at the next barrier
// (see sharded.go).
type bufEvent struct {
	at Time
	fn func()
}

// outBucket batches a source engine's buffered sends to one destination
// engine. Buckets are created in first-send order and reused (evs is
// truncated, not freed, at each flush), so steady-state cross-shard
// traffic schedules without per-event or per-window allocations.
type outBucket struct {
	dst *Engine
	evs []bufEvent
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all actors run inside event callbacks. Engines created by
// NewSharded additionally carry shard-exchange state, but each individual
// engine still executes its own events strictly single-threaded.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventHeap
	rng     *rand.Rand
	stopped bool
	fired   uint64

	// Event-record pool and cancelled-event accounting.
	free      []*event
	deadCount int

	// Sharding state (zero for standalone engines). root is the RNG that
	// SubRand derives streams from; for sharded groups every member shares
	// one root so module streams are identical regardless of shard count.
	// inWindow marks pod engines whose cross-shard sends must be buffered
	// in outboxes until the barrier rather than pushed directly. crossSent
	// counts pod→pod sends buffered since the coordinator last reset it —
	// the signal the adaptive-epoch machinery keys on (sharded.go). It is
	// only ever touched by the goroutine running this engine's events or by
	// the coordinator between windows, so it needs no atomics.
	root      *rand.Rand
	shard     int
	inWindow  bool
	outboxes  []outBucket
	crossSent int
}

// New returns an engine whose random stream is derived from seed.
func New(seed int64) *Engine {
	rng := rand.New(rand.NewSource(seed))
	return &Engine{rng: rng, root: rng, shard: -1}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's random stream. Substrates should derive their
// randomness from it (or from SubRand) so runs are reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// SubRand returns an independent random stream deterministically derived
// from the engine seed and the given label, so adding randomness in one
// module does not perturb another. All engines of a ShardedEngine share one
// root stream, so as long as modules are constructed in the same order, the
// per-module streams are identical for every shard count.
func (e *Engine) SubRand(label string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	h ^= uint64(e.root.Int63())
	return rand.New(rand.NewSource(int64(h)))
}

// acquire takes an event record from the pool (or allocates one).
func (e *Engine) acquire() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{eng: e}
}

// release recycles a fired or reaped record. Bumping the generation makes
// any outstanding Handle to it inert.
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.dead = false
	e.free = append(e.free, ev)
}

// compact rebuilds the heap without its cancelled records.
func (e *Engine) compact() {
	live := e.queue[:0]
	for _, x := range e.queue {
		if x.ev.dead {
			e.release(x.ev)
		} else {
			live = append(live, x)
		}
	}
	clear(e.queue[len(live):])
	e.queue = live
	e.queue.init()
	e.deadCount = 0
}

// At schedules fn to run at absolute time t. Scheduling in the past (or at
// the current instant) fires the event at the current time, after all
// events already scheduled for that time.
func (e *Engine) At(t Time, fn func()) Handle {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	if t < e.now {
		t = e.now
	}
	ev := e.acquire()
	ev.fn = fn
	e.queue.push(heapEntry{at: t, seq: e.seq, ev: ev})
	e.seq++
	return Handle{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) Handle { return e.At(e.now+d, fn) }

// ScheduleOn schedules fn at absolute time at on the engine owning dst.
// On a standalone engine (or when dst is the engine itself, or outside a
// parallel window) this is dst.At. Inside a parallel shard window the event
// is buffered in the source shard's per-destination outbox bucket and
// applied at the barrier; the flush walks sources in shard order and each
// source's buckets in first-send order, and within a bucket events keep
// send order, so every destination heap sees the exact per-destination
// push sequence the unbatched outbox produced. Cross-shard sends return
// the zero Handle: they cannot be cancelled.
func (e *Engine) ScheduleOn(dst *Engine, at Time, fn func()) Handle {
	if dst == e || !e.inWindow {
		return dst.At(at, fn)
	}
	b := e.bucketFor(dst)
	b.evs = append(b.evs, bufEvent{at: at, fn: fn})
	if dst.shard >= 0 {
		// Pod→pod traffic: the only kind that can constrain another pod's
		// progress. Sends to the fabric shard don't count — the fabric is
		// frozen for the duration of every pod window (W <= fabric next),
		// so uploads can never violate causality or invalidate a widened
		// epoch (see the ownership contract in sharded.go).
		e.crossSent++
	}
	return Handle{}
}

// bucketFor returns the outbox bucket for dst, creating it on first use.
// Linear scan: a pod talks to a handful of peer engines (the other pods
// and the fabric), so this beats a map on both time and allocation.
func (e *Engine) bucketFor(dst *Engine) *outBucket {
	for i := range e.outboxes {
		if e.outboxes[i].dst == dst {
			return &e.outboxes[i]
		}
	}
	e.outboxes = append(e.outboxes, outBucket{dst: dst})
	return &e.outboxes[len(e.outboxes)-1]
}

// Every schedules fn to run every period, starting at now+offset, until the
// returned Ticker is stopped or the engine stops.
func (e *Engine) Every(offset, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive period %d", period))
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.tickFn = t.tick
	t.handle = e.After(offset, t.tickFn)
	return t
}

// Ticker repeatedly fires a callback at a fixed virtual-time period.
type Ticker struct {
	engine  *Engine
	period  Time
	fn      func()
	tickFn  func() // t.tick, bound once so re-arming allocates nothing
	handle  Handle
	stopped bool
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped && !t.engine.stopped {
		t.handle = t.engine.After(t.period, t.tickFn)
	}
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.handle.Cancel()
}

// Stop halts the run loop after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Fired reports how many events have executed.
func (e *Engine) Fired() uint64 { return e.fired }

// pending reports how many events are queued (including cancelled ones not
// yet reaped).
func (e *Engine) pending() int { return len(e.queue) }

// live reports how many non-cancelled events are queued.
func (e *Engine) live() int { return len(e.queue) - e.deadCount }

// nextAt reports the time of the earliest live event, reaping any
// cancelled records that have bubbled to the top.
func (e *Engine) nextAt() (Time, bool) {
	for len(e.queue) > 0 && e.queue[0].ev.dead {
		e.deadCount--
		e.release(e.queue.pop().ev)
	}
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// Run executes events until the queue is empty or the engine is stopped.
func (e *Engine) Run() {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		e.step()
	}
}

// RunUntil executes events until virtual time exceeds deadline, the queue
// empties, or the engine is stopped. The clock is left at deadline if the
// queue ran dry earlier events permitting.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > deadline {
			break
		}
		e.step()
	}
	if e.now < deadline && !e.stopped {
		e.now = deadline
	}
}

// runWindow executes every event strictly before w. It is the per-shard
// body of one conservative parallel window; the clock is left at the last
// executed event so cross-window At clamping stays correct.
func (e *Engine) runWindow(w Time) {
	for {
		t, ok := e.nextAt()
		if !ok || t >= w {
			return
		}
		e.step()
	}
}

func (e *Engine) step() {
	top := e.queue.pop()
	ev := top.ev
	if ev.dead {
		e.deadCount--
		e.release(ev)
		return
	}
	if top.at < e.now {
		panic(fmt.Sprintf("sim: time went backwards: %v -> %v", e.now, top.at))
	}
	e.now = top.at
	e.fired++
	fn := ev.fn
	e.release(ev)
	fn()
}
