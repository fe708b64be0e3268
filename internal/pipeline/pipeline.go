// Package pipeline is the telemetry ingest tier between the Agents and
// the Analyzer — the role Kafka + Flink play in the paper's production
// deployment (§4.3, Fig 3). Agents never talk to the Analyzer directly:
// upload batches are hashed by source host into N partitions, each a
// bounded FIFO with an explicit overload policy, and per-partition
// consumers deliver coalesced batches to every subscribed sink. This is
// what lets the system absorb tens of thousands of Agents without the
// Analyzer's window ever blocking a producer.
//
// The hot path moves flat *proto.RecordBatch pointers (UploadRecords):
// partitions are fixed ring buffers, enqueue sequence numbers are a
// single atomic, consumers pop into per-consumer scratch and merge
// same-host runs into a reusable columnar batch — the steady-state
// ingest path performs zero heap allocations. The boxed
// proto.UploadSink surface remains only for the benchmark harness:
// Upload converts a batch on entry, and a sink passed to New that is not
// a proto.RecordSink receives each delivery boxed.
//
// The pipeline runs in one of two modes:
//
//   - Deferred (single-threaded): when Config.Defer is set, every enqueue
//     schedules a drain through it. core.Cluster passes the simulation
//     engine's After(0, …) so ingestion stays deterministic: batches pass
//     through the partition queues and are delivered, in global enqueue
//     order, at the same virtual instant they were uploaded.
//
//   - Concurrent: after Start(), one consumer goroutine per partition
//     drains continuously. This is the mode cmd/rpmesh-controller runs
//     over real TCP. Ordering is then guaranteed per source host only
//     (a host always hashes to the same partition), exactly like a
//     keyed Kafka topic.
//
// Every drop is accounted — nothing is shed silently — and the pipeline
// exposes its own observability (per-partition depth and high-water
// marks, enqueue/dequeue counts, drops by policy, delivery lag) through
// internal/metrics types.
package pipeline

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rpingmesh/internal/metrics"
	"rpingmesh/internal/proto"
)

// Policy is a partition's overload behaviour once its queue is full.
type Policy int

const (
	// Block applies backpressure: a concurrent producer waits for space;
	// a deferred/manual producer drains the partition inline (it pays the
	// delivery cost itself). No batch is ever lost under Block.
	Block Policy = iota
	// DropOldest sheds the head of the queue to admit the new batch —
	// fresh telemetry wins, history loses (the Kafka "delete oldest
	// segment" analogue).
	DropOldest
	// DropNewest rejects the incoming batch — history wins, fresh
	// telemetry loses.
	DropNewest
)

func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	case DropNewest:
		return "drop-newest"
	default:
		return "unknown"
	}
}

// ParsePolicy parses a policy name as String renders it, ignoring
// surrounding whitespace.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range []Policy{Block, DropOldest, DropNewest} {
		if p.String() == strings.TrimSpace(s) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (want block, drop-oldest or drop-newest)", s)
}

// Config parameterizes the pipeline; zero values take sane defaults.
type Config struct {
	// Partitions is the shard count (default 4). A source host always
	// maps to the same partition, so per-host FIFO order survives
	// concurrent consumption.
	Partitions int
	// Capacity bounds each partition queue in batches (default 256).
	Capacity int
	// Policy is the overload behaviour (default Block).
	Policy Policy
	// Defer, when set, switches the pipeline to deferred single-threaded
	// mode: each enqueue schedules one drain through it instead of
	// waking a consumer goroutine. The simulation passes the engine's
	// zero-delay scheduler here.
	Defer func(func())
	// Now supplies the clock used for delivery-lag accounting, in
	// nanoseconds. Defaults to the wall clock; the simulation passes
	// virtual time.
	Now func() int64
}

const (
	// maxCoalesce caps how many queued batches one drain merges into a
	// single downstream delivery per host.
	maxCoalesce = 64
	// lagSample is the per-partition sampling period for delivery-lag
	// measurement on the flat record path: a partition's first enqueue
	// and every 512th after it are timestamped — clock reads are
	// syscalls on some hosts, so the hot path samples sparsely, and
	// sampling the first keeps a quiet daemon's lag visible. The classic
	// Upload path always measures exactly.
	lagSample = 512
)

func (c *Config) setDefaults() {
	if c.Partitions <= 0 {
		c.Partitions = 4
	}
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().UnixNano() }
	}
}

// lagUnsampled marks an item whose queue residence is not measured (the
// record hot path timestamps only a sample of its enqueues).
const lagUnsampled = int64(-1) << 62

// item is one queued upload with its ingest bookkeeping.
type item struct {
	seq uint64 // global enqueue order
	at  int64  // Config.Now() at enqueue, or lagUnsampled
	rb  *proto.RecordBatch
}

// partition is one bounded shard queue: a fixed ring buffer of exactly
// Capacity slots, so steady-state enqueue/dequeue never allocates.
type partition struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond

	buf   []item // len == Capacity, fixed
	head  int
	count int

	waiting     int // consumers blocked on notEmpty
	fullWaiting int // producers blocked on notFull
	sinceLag    int // record enqueues since the last lag sample; 0 samples the next
	lagPending  int // queued items carrying a lag timestamp (conservative)

	depth         metrics.Gauge
	enqueued      uint64
	dequeued      uint64
	droppedOldest uint64
	droppedNewest uint64
	resultsShed   uint64
	blockWaits    uint64
}

// Ring indexes advance by compare-and-subtract rather than modulo:
// integer division is tens of cycles on older cores and this is the
// per-record hot path.
func (pt *partition) push(it item) {
	i := pt.head + pt.count
	if i >= len(pt.buf) {
		i -= len(pt.buf)
	}
	pt.buf[i] = it
	pt.count++
}

func (pt *partition) popOldest() item {
	it := pt.buf[pt.head]
	pt.buf[pt.head].rb = nil // release the reference for GC
	if pt.head++; pt.head >= len(pt.buf) {
		pt.head = 0
	}
	pt.count--
	return it
}

// PartitionStats is one shard's observability snapshot.
type PartitionStats struct {
	Depth int64
	// MaxDepth is the shard's queue-depth high-water mark since start —
	// the overload-tuning signal surfaced at /api/pipeline.
	MaxDepth      int64
	Enqueued      uint64
	Dequeued      uint64
	DroppedOldest uint64
	DroppedNewest uint64
	// ResultsShed counts probe results inside dropped batches.
	ResultsShed uint64
	// BlockWaits counts producer stalls (or inline drains) under Block.
	BlockWaits uint64
}

// Stats is the pipeline-wide observability snapshot.
type Stats struct {
	Partitions []PartitionStats

	// Batch counters, summed over partitions.
	Enqueued      uint64
	Dequeued      uint64
	DroppedOldest uint64
	DroppedNewest uint64
	ResultsShed   uint64
	BlockWaits    uint64

	// QueueHighWater is the worst queue-depth high-water mark across all
	// partitions (max over Partitions[i].MaxDepth).
	QueueHighWater int64

	// Delivered counts downstream deliveries after coalescing (so
	// Delivered ≤ Dequeued), and ResultsDelivered the probe results in
	// them.
	Delivered        uint64
	ResultsDelivered uint64

	// Lag summarizes queue residence time (ns) of dequeued batches;
	// Lag.Max is the worst observed. The flat record path samples each
	// partition's first batch and every lagSample-th after it; the
	// classic Upload path measures every batch.
	Lag metrics.Summary
}

// Dropped is the total batches shed under either drop policy.
func (s Stats) Dropped() uint64 { return s.DroppedOldest + s.DroppedNewest }

// AccountingError verifies the pipeline's conservation law: every batch
// admitted to a partition is either still queued, dequeued, or shed under
// DropOldest — nothing vanishes, nothing is double-counted. (DropNewest
// rejections never enter a queue, so they sit outside the identity.) The
// chaos harness evaluates this every analysis window; any non-nil return
// is an invariant violation, exact to the batch.
func (s Stats) AccountingError() error {
	for i, ps := range s.Partitions {
		want := ps.Dequeued + ps.DroppedOldest + uint64(ps.Depth)
		if ps.Enqueued != want {
			return fmt.Errorf("partition %d: enqueued=%d != dequeued=%d + dropped_oldest=%d + depth=%d",
				i, ps.Enqueued, ps.Dequeued, ps.DroppedOldest, ps.Depth)
		}
		if ps.Depth < 0 || ps.Depth > ps.MaxDepth {
			return fmt.Errorf("partition %d: depth=%d outside [0, max_depth=%d]", i, ps.Depth, ps.MaxDepth)
		}
	}
	if s.Delivered > s.Dequeued {
		return fmt.Errorf("delivered=%d > dequeued=%d (coalescing can only shrink)", s.Delivered, s.Dequeued)
	}
	return nil
}

// String renders the one-line self-metrics summary the daemons print.
func (s Stats) String() string {
	return fmt.Sprintf("in=%d out=%d delivered=%d dropped(old=%d new=%d) shed_results=%d block_waits=%d hwm=%d max_lag=%s",
		s.Enqueued, s.Dequeued, s.Delivered, s.DroppedOldest, s.DroppedNewest,
		s.ResultsShed, s.BlockWaits, s.QueueHighWater, time.Duration(int64(s.Lag.Max)))
}

// deliverScratch is the reusable working memory of one drain loop: the
// pop buffer, the DrainAll accumulation slice and the columnar merge
// target. Each consumer goroutine owns one; DrainAll borrows one from a
// pool.
type deliverScratch struct {
	pop    []item
	drain  []item
	merged proto.RecordBatch
}

// Pipeline is the sharded ingest bus. It implements both
// proto.UploadSink (classic batches, converted on entry) and
// proto.RecordSink (the flat zero-allocation path).
type Pipeline struct {
	cfg   Config
	parts []*partition

	seq        atomic.Uint64
	delivered  atomic.Uint64
	resultsOut atomic.Uint64
	// concurrent mirrors running for the enqueue fast path: while consumer
	// goroutines are live, global enqueue order is not a delivery guarantee
	// (per-host FIFO only), so producers skip the shared seq counter and
	// its cross-core cache traffic.
	concurrent atomic.Bool

	// Sink fan-out lists, split once at subscription so delivery does
	// not type-switch per batch. Subscribe before Start (see
	// SubscribeRecords).
	recSinks   []proto.RecordSink
	batchSinks []proto.UploadSink

	scratch sync.Pool // *deliverScratch, for DrainAll / inline drains

	mu          sync.Mutex
	drainArmed  bool
	lag         *metrics.Distribution
	running     bool
	stopping    bool
	consumersWG sync.WaitGroup
}

// New builds a pipeline delivering to the given sinks (more record sinks
// can be added with SubscribeRecords). A sink that also implements
// proto.RecordSink receives flat record batches (borrowed for the call;
// copy to retain) and never the boxed form. The pipeline is usable
// immediately: in deferred mode (Config.Defer set) it needs no Start; in
// concurrent mode call Start to spawn the per-partition consumers, or
// call DrainAll manually.
func New(cfg Config, sinks ...proto.UploadSink) *Pipeline {
	cfg.setDefaults()
	p := &Pipeline{
		cfg: cfg,
		lag: metrics.NewDistribution(),
	}
	p.scratch.New = func() any { return p.newScratch() }
	for _, s := range sinks {
		if rs, ok := s.(proto.RecordSink); ok {
			p.recSinks = append(p.recSinks, rs)
		} else {
			p.batchSinks = append(p.batchSinks, s)
		}
	}
	p.parts = make([]*partition, cfg.Partitions)
	for i := range p.parts {
		pt := &partition{buf: make([]item, cfg.Capacity)}
		pt.notFull = sync.NewCond(&pt.mu)
		pt.notEmpty = sync.NewCond(&pt.mu)
		p.parts[i] = pt
	}
	return p
}

func (p *Pipeline) newScratch() *deliverScratch {
	return &deliverScratch{pop: make([]item, maxCoalesce)}
}

// SubscribeRecords adds a downstream sink. It receives every delivered
// batch after the record sinks subscribed before it, borrowed for the
// call (copy to retain). Subscribe before Start (or from the simulation's
// single thread); it is not safe to race with consumers.
func (p *Pipeline) SubscribeRecords(s proto.RecordSink) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.recSinks = append(p.recSinks, s)
}

// PartitionKey maps a key onto one of n shards (FNV-1a). It is the
// single partitioning function of the telemetry tier: the ingest bus
// shards uploads with it, and the Analyzer's sharded window stages key
// their workers with it so per-host work lands on consistent shards in
// both layers.
func PartitionKey(key string, n int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// partitionOf reports which shard a host's uploads land on.
func (p *Pipeline) partitionOf(host string) int {
	return PartitionKey(host, len(p.parts))
}

// Upload implements proto.UploadSink: the compatibility path. The batch
// is converted to flat form on entry (one allocation per batch) and its
// queue residence is measured exactly.
func (p *Pipeline) Upload(b proto.UploadBatch) {
	pi := PartitionKey(string(b.Host), len(p.parts))
	p.enqueue(pi, proto.RecordsFromBatch(b), true)
}

// UploadRecords implements proto.RecordSink: the zero-allocation hot
// path. Ownership of rb transfers to the pipeline; producers must not
// mutate it after the call (re-enqueueing the same immutable batch is
// fine — the pipeline never writes through it).
func (p *Pipeline) UploadRecords(rb *proto.RecordBatch) {
	pi := PartitionKey(string(rb.Host), len(p.parts))
	p.enqueue(pi, rb, false)
}

// enqueue admits one flat batch under the overload policy. exactLag
// forces a residence timestamp (classic Upload); otherwise only a
// partition's first enqueue and every lagSample-th after it are
// timestamped.
func (p *Pipeline) enqueue(pi int, rb *proto.RecordBatch, exactLag bool) {
	pt := p.parts[pi]
	it := item{at: lagUnsampled, rb: rb}
	if !p.concurrent.Load() {
		// Deferred/manual mode: DrainAll restores strict global upload
		// order by this sequence number.
		it.seq = p.seq.Add(1)
	}
	if exactLag {
		it.at = p.cfg.Now()
	}

	pt.mu.Lock()
	for pt.count >= len(pt.buf) {
		switch p.cfg.Policy {
		case DropOldest:
			shed := pt.popOldest()
			pt.droppedOldest += dropOldestInc
			pt.resultsShed += uint64(shed.rb.Len())
		case DropNewest:
			pt.droppedNewest++
			pt.resultsShed += uint64(rb.Len())
			pt.mu.Unlock()
			return
		default: // Block
			pt.blockWaits++
			if p.isRunning() {
				// A consumer goroutine will make room.
				pt.fullWaiting++
				pt.notFull.Wait()
				pt.fullWaiting--
				continue
			}
			// No consumer to wait for: the producer drains inline —
			// synchronous backpressure, the deferred/manual analogue of
			// blocking.
			pt.mu.Unlock()
			p.drainPartition(pi)
			pt.mu.Lock()
		}
	}
	if !exactLag {
		if pt.sinceLag == 0 {
			it.at = p.cfg.Now()
		}
		pt.sinceLag++
		if pt.sinceLag >= lagSample {
			pt.sinceLag = 0
		}
	}
	if it.at != lagUnsampled {
		pt.lagPending++
	}
	pt.push(it)
	pt.enqueued++
	pt.depth.Set(int64(pt.count))
	// Signal after unlock so the woken consumer doesn't immediately block
	// on the mutex we still hold. The race is benign: a consumer that has
	// not yet registered as waiting will re-check count under the lock
	// before sleeping.
	doSignal := pt.waiting > 0
	pt.mu.Unlock()
	if doSignal {
		pt.notEmpty.Signal()
	}

	if p.cfg.Defer != nil {
		p.armDrain()
	}
}

func (p *Pipeline) isRunning() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.running
}

// armDrain schedules one deferred DrainAll if none is already pending.
func (p *Pipeline) armDrain() {
	p.mu.Lock()
	if p.drainArmed {
		p.mu.Unlock()
		return
	}
	p.drainArmed = true
	p.mu.Unlock()
	p.cfg.Defer(func() {
		p.mu.Lock()
		p.drainArmed = false
		p.mu.Unlock()
		p.DrainAll()
	})
}

// Start spawns one consumer goroutine per partition (concurrent mode).
func (p *Pipeline) Start() {
	p.mu.Lock()
	if p.running {
		p.mu.Unlock()
		return
	}
	p.running = true
	p.stopping = false
	p.concurrent.Store(true)
	p.mu.Unlock()
	for i := range p.parts {
		p.consumersWG.Add(1)
		go p.consume(i)
	}
}

// Stop halts the consumers, then drains whatever is still queued so no
// accepted batch is lost across shutdown.
func (p *Pipeline) Stop() {
	p.mu.Lock()
	if !p.running {
		p.mu.Unlock()
		return
	}
	p.stopping = true
	p.mu.Unlock()
	for _, pt := range p.parts {
		pt.mu.Lock()
		pt.notEmpty.Broadcast()
		pt.notFull.Broadcast()
		pt.mu.Unlock()
	}
	p.consumersWG.Wait()
	p.mu.Lock()
	p.running = false
	p.stopping = false
	p.concurrent.Store(false)
	p.mu.Unlock()
	p.DrainAll()
}

func (p *Pipeline) consume(pi int) {
	defer p.consumersWG.Done()
	pt := p.parts[pi]
	sc := p.newScratch() // consumer-owned: the steady-state path allocates nothing
	// spare is the consumer's swap ring: taking a batch of work exchanges
	// whole buffers under the lock (O(1) critical section) instead of
	// copying items while producers wait.
	spare := make([]item, p.cfg.Capacity)
	for {
		pt.mu.Lock()
		for pt.count == 0 {
			p.mu.Lock()
			stop := p.stopping
			p.mu.Unlock()
			if stop {
				pt.mu.Unlock()
				return
			}
			// Park at once, never spin: a yielding consumer lands on the
			// scheduler's global run queue, which is served before the
			// network poller, so on few Ps a spin starves the very sockets
			// the next batch arrives on (DESIGN.md §11).
			pt.waiting++
			pt.notEmpty.Wait()
			pt.waiting--
		}
		buf, head, n, mayLag := pt.takeAllLocked(spare)
		pt.mu.Unlock()
		spare = buf // the partition now owns our old spare

		// Deliver in FIFO order straight out of the taken ring — at most
		// two contiguous segments, no per-item copying — chunked so one
		// coalesced delivery never merges more than maxCoalesce batches.
		for n > 0 {
			cnt := n
			if head+cnt > len(buf) {
				cnt = len(buf) - head
			}
			seg := buf[head : head+cnt]
			for off := 0; off < len(seg); {
				m := len(seg) - off
				if m > maxCoalesce {
					m = maxCoalesce
				}
				p.deliver(seg[off:off+m], sc, mayLag)
				off += m
			}
			clearItems(seg) // release batch references for GC
			n -= cnt
			head = 0
		}
	}
}

// takeAllLocked hands the partition's entire ring to the caller (who
// supplies a replacement of equal capacity) and returns the old buffer
// with its head index, item count, and whether any taken item may carry
// a lag timestamp (so delivery can skip the per-item scan on unsampled
// swaps). Caller holds pt.mu.
func (pt *partition) takeAllLocked(spare []item) ([]item, int, int, bool) {
	buf, head, n := pt.buf, pt.head, pt.count
	mayLag := pt.lagPending > 0
	pt.lagPending = 0
	pt.buf = spare
	pt.head, pt.count = 0, 0
	pt.dequeued += uint64(n)
	pt.depth.Set(0)
	if pt.fullWaiting > 0 {
		pt.notFull.Broadcast()
	}
	return buf, head, n, mayLag
}

// popLocked removes up to len(dst) items from the partition (caller
// holds pt.mu) into dst in FIFO order and returns the count.
func (p *Pipeline) popLocked(pt *partition, dst []item) int {
	n := pt.count
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = pt.buf[pt.head]
		pt.buf[pt.head].rb = nil
		if pt.head++; pt.head >= len(pt.buf) {
			pt.head = 0
		}
	}
	pt.count -= n
	pt.dequeued += uint64(n)
	pt.depth.Set(int64(pt.count))
	if pt.fullWaiting > 0 {
		pt.notFull.Broadcast()
	}
	return n
}

// drainPartition synchronously empties one shard (used for inline
// backpressure and by DrainAll).
func (p *Pipeline) drainPartition(pi int) {
	pt := p.parts[pi]
	sc := p.scratch.Get().(*deliverScratch)
	for {
		pt.mu.Lock()
		if pt.count == 0 {
			pt.mu.Unlock()
			break
		}
		n := p.popLocked(pt, sc.pop)
		pt.mu.Unlock()
		p.deliver(sc.pop[:n], sc, true)
	}
	p.scratch.Put(sc)
}

// DrainAll synchronously delivers everything queued, across partitions,
// in global enqueue order — so in deferred (simulation) mode downstream
// sinks observe exactly the upload order, deterministically. Safe to call
// at any time; concurrent consumers and DrainAll never double-deliver a
// batch (each pop is exclusive).
func (p *Pipeline) DrainAll() {
	sc := p.scratch.Get().(*deliverScratch)
	for {
		items := sc.drain[:0]
		for _, pt := range p.parts {
			pt.mu.Lock()
			if pt.count > 0 {
				n := p.popLocked(pt, sc.pop)
				items = append(items, sc.pop[:n]...)
			}
			pt.mu.Unlock()
		}
		sc.drain = items
		if len(items) == 0 {
			break
		}
		// k-way merge by enqueue seq: partitions are FIFO, so a simple
		// stable sort restores the global order.
		sortItems(items)
		p.deliver(items, sc, true)
		clearItems(items)
	}
	p.scratch.Put(sc)
}

func sortItems(items []item) {
	// Insertion sort: drains are small and mostly sorted already.
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].seq < items[j-1].seq; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}

func clearItems(items []item) {
	for i := range items {
		items[i].rb = nil
	}
}

// deliver coalesces consecutive same-host batches and fans them out to
// every subscriber. Called without any partition lock held. sc provides
// the reusable merge target; items runs of length 1 are handed to record
// sinks zero-copy. mayLag false promises no item carries a timestamp,
// skipping the per-item scan.
func (p *Pipeline) deliver(items []item, sc *deliverScratch, mayLag bool) {
	if len(items) == 0 {
		return
	}

	// Queue-residence lag: only timestamped items contribute (the record
	// path samples; the classic path stamps every batch).
	sampled := false
	if mayLag {
		for i := range items {
			if items[i].at != lagUnsampled {
				sampled = true
				break
			}
		}
	}
	if sampled {
		now := p.cfg.Now()
		p.mu.Lock()
		for i := range items {
			if items[i].at != lagUnsampled {
				p.lag.Add(float64(now - items[i].at))
			}
		}
		p.mu.Unlock()
	}

	flushFrom := 0
	// Delivery counters accumulate locally and fold into the shared
	// atomics once per deliver call: with 4 consumers flushing long
	// length-1 runs, per-flush atomic adds were the dominant cross-core
	// cache traffic.
	var nDelivered, nResults uint64
	flush := func(hi int) {
		if flushFrom >= hi {
			return
		}
		var rb *proto.RecordBatch
		if hi-flushFrom == 1 {
			rb = items[flushFrom].rb
		} else {
			// Merge the run into the reusable columnar scratch batch:
			// Host from the first constituent, Sent/Seq from the newest.
			sc.merged.Reset()
			sc.merged.Host = items[flushFrom].rb.Host
			last := items[hi-1].rb
			sc.merged.Sent = last.Sent
			sc.merged.Seq = last.Seq
			for k := flushFrom; k < hi; k++ {
				sc.merged.AppendFrom(&items[k].rb.Records)
			}
			rb = &sc.merged
		}
		flushFrom = hi
		nDelivered++
		nResults += uint64(rb.Len())
		for _, s := range p.recSinks {
			s.UploadRecords(rb)
		}
		if len(p.batchSinks) > 0 {
			ub := rb.ToUploadBatch()
			for _, s := range p.batchSinks {
				s.Upload(ub)
			}
		}
	}
	for i := 1; i < len(items); i++ {
		if items[i].rb.Host != items[i-1].rb.Host {
			flush(i)
		}
	}
	flush(len(items))
	p.delivered.Add(nDelivered)
	p.resultsOut.Add(nResults)
}

// Depth reports the current queue depth of one partition.
func (p *Pipeline) Depth(pi int) int {
	pt := p.parts[pi]
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.count
}

// QueueFraction reports the fill fraction (0..1) of the fullest
// partition — the pressure signal the API's admission control sheds on.
// Cheap enough to call per request: one mutex tap per partition, no
// distribution snapshots.
func (p *Pipeline) QueueFraction() float64 {
	worst := 0
	for _, pt := range p.parts {
		pt.mu.Lock()
		c := pt.count
		pt.mu.Unlock()
		if c > worst {
			worst = c
		}
	}
	return float64(worst) / float64(p.cfg.Capacity)
}

// Stats snapshots the pipeline's self-metrics.
func (p *Pipeline) Stats() Stats {
	s := Stats{Partitions: make([]PartitionStats, len(p.parts))}
	for i, pt := range p.parts {
		pt.mu.Lock()
		ps := PartitionStats{
			Depth:         int64(pt.count),
			MaxDepth:      pt.depth.Max(),
			Enqueued:      pt.enqueued,
			Dequeued:      pt.dequeued,
			DroppedOldest: pt.droppedOldest,
			DroppedNewest: pt.droppedNewest,
			ResultsShed:   pt.resultsShed,
			BlockWaits:    pt.blockWaits,
		}
		pt.mu.Unlock()
		s.Partitions[i] = ps
		s.Enqueued += ps.Enqueued
		s.Dequeued += ps.Dequeued
		s.DroppedOldest += ps.DroppedOldest
		s.DroppedNewest += ps.DroppedNewest
		s.ResultsShed += ps.ResultsShed
		s.BlockWaits += ps.BlockWaits
		if ps.MaxDepth > s.QueueHighWater {
			s.QueueHighWater = ps.MaxDepth
		}
	}
	s.Delivered = p.delivered.Load()
	s.ResultsDelivered = p.resultsOut.Load()
	p.mu.Lock()
	s.Lag = p.lag.Summarize()
	p.mu.Unlock()
	return s
}
