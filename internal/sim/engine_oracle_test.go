package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refEngine is the reference scheduler the inline 4-ary heap replaced:
// container/heap over []*refEvent, one record per event, cancellation by
// a dead flag reaped on pop, no pooling and no compaction. It is kept
// only as the oracle TestHeapMatchesOracle holds Engine to.
type refEngine struct {
	now     Time
	seq     uint64
	queue   refQueue
	stopped bool
	fired   uint64
}

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	idx  int
	dead bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}
func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.idx = len(*q)
	*q = append(*q, ev)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

func (e *refEngine) Now() Time     { return e.now }
func (e *refEngine) Fired() uint64 { return e.fired }
func (e *refEngine) Stop()         { e.stopped = true }

func (e *refEngine) live() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.dead {
			n++
		}
	}
	return n
}

func (e *refEngine) At(t Time, fn func()) func() {
	if t < e.now {
		t = e.now
	}
	ev := &refEvent{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return func() { ev.dead = true }
}

func (e *refEngine) After(d Time, fn func()) func() { return e.At(e.now+d, fn) }

func (e *refEngine) Every(offset, period Time, fn func()) func() {
	stopped := false
	var cancel func()
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped && !e.stopped {
			cancel = e.At(e.now+period, tick)
		}
	}
	cancel = e.At(e.now+offset, tick)
	return func() {
		stopped = true
		cancel()
	}
}

func (e *refEngine) RunUntil(deadline Time) {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > deadline {
			break
		}
		ev := heap.Pop(&e.queue).(*refEvent)
		if ev.dead {
			continue
		}
		e.now = ev.at
		e.fired++
		ev.fn()
	}
	if e.now < deadline && !e.stopped {
		e.now = deadline
	}
}

// scheduler is the surface the oracle script drives: Engine (through
// engineSched) and refEngine both implement it.
type scheduler interface {
	Now() Time
	At(t Time, fn func()) (cancel func())
	After(d Time, fn func()) (cancel func())
	Every(offset, period Time, fn func()) (stop func())
	Stop()
	RunUntil(deadline Time)
	Fired() uint64
	live() int
}

type engineSched struct{ *Engine }

func (s engineSched) At(t Time, fn func()) func() { return s.Engine.At(t, fn).Cancel }
func (s engineSched) After(d Time, fn func()) func() {
	return s.Engine.After(d, fn).Cancel
}
func (s engineSched) Every(offset, period Time, fn func()) func() {
	return s.Engine.Every(offset, period, fn).Stop
}

// oracleScript drives s through a seeded random workload and returns the
// firing log: every fired callback's (time, id), where ids are handed out
// in scheduling order, so two schedulers agree on the log exactly when
// they fire the same events in the same (time, seq) order. Callbacks
// draw from one shared stream, so any divergence snowballs instead of
// hiding. Times are coarse (multiples of 10 ns) to make same-instant ties
// common; one callback schedules 12k far-future events and cancels 10k
// of them, which forces Engine's compaction with live entries around.
func oracleScript(s scheduler, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	var log []string
	var cancels, stops []func()
	ids := 0
	burst := false
	const budget = 20_000

	var body func(id int)
	schedule := func(at Time) {
		id := ids
		ids++
		cancels = append(cancels, s.At(at, func() { body(id) }))
	}
	scheduleAfter := func(d Time) {
		id := ids
		ids++
		cancels = append(cancels, s.After(d, func() { body(id) }))
	}
	delay := func() Time {
		switch r.Intn(6) {
		case 0:
			return 0 // same instant as the firing event
		case 1:
			return -Time(10 * r.Intn(5)) // the past: clamped to now
		case 2:
			return Time(10 * r.Intn(4000))
		default:
			return Time(10 * r.Intn(40))
		}
	}
	body = func(id int) {
		now := s.Now()
		log = append(log, fmt.Sprintf("%d %d", now, id))
		if ids < budget {
			for k := r.Intn(3); k > 0; k-- {
				if r.Intn(2) == 0 {
					schedule(now + delay())
				} else {
					scheduleAfter(delay())
				}
			}
		}
		if len(cancels) > 0 && r.Intn(3) == 0 {
			cancels[r.Intn(len(cancels))]() // may be fired or cancelled already
		}
		if !burst && now > 5000 {
			burst = true
			first := len(cancels)
			for i := 0; i < 12_000; i++ {
				schedule(now + Time(10*(1000+r.Intn(100_000))))
			}
			doomed := cancels[first:]
			r.Shuffle(len(doomed), func(i, j int) { doomed[i], doomed[j] = doomed[j], doomed[i] })
			for _, c := range doomed[:10_000] {
				c()
			}
			log = append(log, fmt.Sprintf("%d burst live=%d", now, s.live()))
		}
		switch x := r.Intn(100); {
		case x < 3 && ids < budget:
			id := ids
			ids++
			ticks := 0
			stops = append(stops, s.Every(delay(), Time(10*(1+r.Intn(30))), func() {
				ticks++
				log = append(log, fmt.Sprintf("%d tick %d/%d", s.Now(), id, ticks))
				if r.Intn(50) == 0 {
					s.Stop() // a stopping tick does not re-arm
				}
			}))
		case x < 6 && len(stops) > 0:
			stops[r.Intn(len(stops))]()
		case x == 6:
			s.Stop()
		}
	}

	for i := 0; i < 8; i++ {
		schedule(Time(10 * r.Intn(100)))
	}
	for d := Time(0); s.live() > 0; d += Time(10 * (1 + r.Intn(2000))) {
		s.RunUntil(d)
		log = append(log, fmt.Sprintf("until %d now=%d fired=%d live=%d", d, s.Now(), s.Fired(), s.live()))
		if r.Intn(4) == 0 {
			// Between runs, stop every ticker so the script terminates
			// once the one-shot budget is spent.
			for _, stop := range stops {
				if ids >= budget {
					stop()
				}
			}
			schedule(d + delay())
		}
	}
	return log
}

// TestHeapMatchesOracle holds Engine's 4-ary heap, pooled records, lazy
// cancel and compaction to the container/heap reference: over seeded
// random At/After/Every/Cancel/Stop workloads, including a 10k-cancel
// compaction burst, both fire the identical (time, seq) sequence.
func TestHeapMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		want := oracleScript(&refEngine{}, seed)
		e := New(seed)
		got := oracleScript(engineSched{e}, seed)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("seed %d: firing logs diverge at line %d of %d/%d:\n got  %s\n want %s",
				seed, i, len(got), len(want), lineAt(got, i), lineAt(want, i))
		}
		if !slices.ContainsFunc(got, func(l string) bool { return strings.Contains(l, "burst") }) {
			t.Fatalf("seed %d: the compaction burst never ran", seed)
		}
		if e.pending() != 0 || len(e.free) == 0 {
			t.Fatalf("seed %d: pending=%d free=%d after drain", seed, e.pending(), len(e.free))
		}
	}
}

func firstDiff(a, b []string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func lineAt(l []string, i int) string {
	if i < len(l) {
		return l[i]
	}
	return "<end>"
}
