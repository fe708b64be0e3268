package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpingmesh/internal/proto"
	"rpingmesh/internal/topo"
)

// collector records delivered batches.
type collector struct {
	mu      sync.Mutex
	batches []proto.UploadBatch
}

func (c *collector) Upload(b proto.UploadBatch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.batches = append(c.batches, b)
}

func (c *collector) results() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, b := range c.batches {
		n += len(b.Results)
	}
	return n
}

func (c *collector) seqsOf(host topo.HostID) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []uint64
	for _, b := range c.batches {
		if b.Host == host {
			out = append(out, b.Seq)
		}
	}
	return out
}

// recordFunc adapts a function to proto.RecordSink.
type recordFunc func(*proto.RecordBatch)

func (f recordFunc) UploadRecords(b *proto.RecordBatch) { f(b) }

func batch(host string, seq uint64, n int) proto.UploadBatch {
	return proto.UploadBatch{
		Host:    topo.HostID(host),
		Seq:     seq,
		Results: make([]proto.ProbeResult, n),
	}
}

// onePartitionCfg gives a single shard so capacity tests are exact.
func onePartitionCfg(capacity int, pol Policy) Config {
	return Config{Partitions: 1, Capacity: capacity, Policy: pol}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{Block, DropOldest, DropNewest} {
		for _, s := range []string{p.String(), " " + p.String() + "\n"} {
			if got, err := ParsePolicy(s); err != nil || got != p {
				t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
			}
		}
	}
	if _, err := ParsePolicy("lossy"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown policy")
	}
}

// DropOldest: filling a partition past capacity sheds exactly the
// overflow, oldest first, with exact batch and result accounting.
func TestOverflowDropOldest(t *testing.T) {
	sink := &collector{}
	p := New(onePartitionCfg(4, DropOldest), sink)
	for i := 1; i <= 10; i++ {
		p.Upload(batch("h1", uint64(i), 3))
	}
	st := p.Stats()
	if st.DroppedOldest != 6 || st.DroppedNewest != 0 {
		t.Fatalf("expected exactly 6 oldest-drops, got %+v", st)
	}
	if st.ResultsShed != 6*3 {
		t.Fatalf("expected 18 shed results, got %d", st.ResultsShed)
	}
	p.DrainAll()
	// The survivors must be the NEWEST four uploads, in order.
	want := []uint64{7, 8, 9, 10}
	var got []uint64
	for _, b := range sink.batches {
		got = append(got, b.Seq)
	}
	// Coalescing may merge them into one delivery carrying the last Seq.
	if sink.results() != 4*3 {
		t.Fatalf("expected 12 delivered results, got %d", sink.results())
	}
	last := got[len(got)-1]
	if last != want[len(want)-1] {
		t.Fatalf("newest surviving seq = %d, want %d", last, want[len(want)-1])
	}
	st = p.Stats()
	// DropOldest admits everything and sheds from the head, so the
	// conservation law is enqueued == dequeued + dropped + depth.
	if st.Enqueued != 10 || st.Dequeued != 4 || st.Enqueued != st.Dequeued+st.Dropped() {
		t.Fatalf("conservation violated: %+v", st)
	}
	if st.ResultsDelivered != 12 {
		t.Fatalf("dequeue accounting: %+v", st)
	}
}

// DropNewest: the incoming batch is rejected, history is preserved.
func TestOverflowDropNewest(t *testing.T) {
	sink := &collector{}
	p := New(onePartitionCfg(4, DropNewest), sink)
	for i := 1; i <= 10; i++ {
		p.Upload(batch("h1", uint64(i), 2))
	}
	st := p.Stats()
	if st.DroppedNewest != 6 || st.DroppedOldest != 0 {
		t.Fatalf("expected exactly 6 newest-drops, got %+v", st)
	}
	if st.ResultsShed != 6*2 {
		t.Fatalf("expected 12 shed results, got %d", st.ResultsShed)
	}
	p.DrainAll()
	// Survivors are the OLDEST four uploads.
	if sink.results() != 4*2 {
		t.Fatalf("expected 8 delivered results, got %d", sink.results())
	}
	seqs := sink.seqsOf("h1")
	if seqs[len(seqs)-1] != 4 {
		t.Fatalf("newest surviving seq = %d, want 4", seqs[len(seqs)-1])
	}
}

// Block without consumers: the producer drains inline — every batch is
// delivered, none dropped, and the stall is accounted.
func TestOverflowBlockInlineDrain(t *testing.T) {
	sink := &collector{}
	p := New(onePartitionCfg(2, Block), sink)
	const n = 50
	for i := 1; i <= n; i++ {
		p.Upload(batch("h1", uint64(i), 1))
	}
	p.DrainAll()
	st := p.Stats()
	if st.Dropped() != 0 || st.ResultsShed != 0 {
		t.Fatalf("blocking policy dropped: %+v", st)
	}
	if st.BlockWaits == 0 {
		t.Fatal("expected producer stalls to be accounted")
	}
	if sink.results() != n {
		t.Fatalf("delivered %d of %d results", sink.results(), n)
	}
	seqs := sink.seqsOf("h1")
	if seqs[len(seqs)-1] != n {
		t.Fatalf("lost the tail: last seq %d", seqs[len(seqs)-1])
	}
}

// Block with live consumers under concurrent producers: nothing is ever
// lost, even with a queue far smaller than the burst.
func TestBlockingNoLossConcurrent(t *testing.T) {
	sink := &collector{}
	p := New(Config{Partitions: 4, Capacity: 2, Policy: Block}, sink)
	p.Start()
	const hosts, per = 8, 200
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			name := fmt.Sprintf("host-%d", h)
			for i := 1; i <= per; i++ {
				p.Upload(batch(name, uint64(i), 1))
			}
		}(h)
	}
	wg.Wait()
	p.Stop()
	st := p.Stats()
	if st.Dropped() != 0 {
		t.Fatalf("blocking policy dropped batches: %+v", st)
	}
	if got := sink.results(); got != hosts*per {
		t.Fatalf("delivered %d of %d results", got, hosts*per)
	}
	if st.Enqueued != hosts*per {
		t.Fatalf("enqueued %d of %d", st.Enqueued, hosts*per)
	}
}

// Per-source-host ordering survives concurrent consumption: a host's
// Seqs arrive strictly increasing (coalescing keeps the newest Seq, so
// increase — not density — is the invariant).
func TestPerHostOrderingConcurrent(t *testing.T) {
	sink := &collector{}
	p := New(Config{Partitions: 4, Capacity: 64, Policy: Block}, sink)
	p.Start()
	const hosts, per = 16, 300
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			name := fmt.Sprintf("host-%d", h)
			for i := 1; i <= per; i++ {
				p.Upload(batch(name, uint64(i), 1))
			}
		}(h)
	}
	wg.Wait()
	p.Stop()
	for h := 0; h < hosts; h++ {
		name := topo.HostID(fmt.Sprintf("host-%d", h))
		seqs := sink.seqsOf(name)
		if len(seqs) == 0 {
			t.Fatalf("host %s: nothing delivered", name)
		}
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("host %s: seq went %d -> %d", name, seqs[i-1], seqs[i])
			}
		}
		if seqs[len(seqs)-1] != per {
			t.Fatalf("host %s: newest seq %d, want %d", name, seqs[len(seqs)-1], per)
		}
	}
}

// A host always hashes to the same partition, and distinct hosts spread.
func TestPartitioningIsStableAndSpread(t *testing.T) {
	p := New(Config{Partitions: 8})
	used := make(map[int]bool)
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("host-%d", i)
		pi := p.partitionOf(name)
		if pi != p.partitionOf(name) {
			t.Fatal("partition not stable")
		}
		if pi < 0 || pi >= 8 {
			t.Fatalf("partition %d out of range", pi)
		}
		used[pi] = true
	}
	if len(used) < 4 {
		t.Fatalf("64 hosts landed on only %d of 8 partitions", len(used))
	}
}

// Deferred mode: enqueues hand off through the scheduler and arrive in
// global upload order, coalesced per host.
func TestDeferredModeGlobalOrder(t *testing.T) {
	var deferred []func()
	sink := &collector{}
	p := New(Config{
		Partitions: 4,
		Defer:      func(fn func()) { deferred = append(deferred, fn) },
		Now:        func() int64 { return 0 },
	}, sink)

	p.Upload(batch("a", 1, 1))
	p.Upload(batch("b", 1, 1))
	p.Upload(batch("a", 2, 1))
	p.Upload(batch("c", 1, 1))
	if sink.results() != 0 {
		t.Fatal("delivered before the deferred drain ran")
	}
	if p.Stats().Enqueued != 4 {
		t.Fatalf("queue should hold the batches: %+v", p.Stats())
	}
	for len(deferred) > 0 {
		fn := deferred[0]
		deferred = deferred[1:]
		fn()
	}
	// Strict global upload order: a, b, a, c. Coalescing only merges
	// CONSECUTIVE same-host batches, and a's two uploads are separated
	// by b's, so nothing merges here.
	var hostsSeen []string
	for _, b := range sink.batches {
		hostsSeen = append(hostsSeen, string(b.Host))
	}
	if sink.results() != 4 {
		t.Fatalf("delivered %d of 4 results", sink.results())
	}
	want := []string{"a", "b", "a", "c"}
	if len(hostsSeen) != len(want) {
		t.Fatalf("delivery order %v, want %v", hostsSeen, want)
	}
	for i := range want {
		if hostsSeen[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", hostsSeen, want)
		}
	}
	if got := sink.seqsOf("a"); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("per-host seqs %v, want [1 2]", got)
	}
}

// Fan-out: every subscriber, boxed or flat, sees every delivery.
func TestFanOut(t *testing.T) {
	s1, s2 := &collector{}, &collector{}
	var fnCount atomic.Int64
	p := New(onePartitionCfg(16, Block), s1, s2)
	p.SubscribeRecords(recordFunc(func(b *proto.RecordBatch) {
		fnCount.Add(int64(b.Len()))
	}))
	for i := 1; i <= 5; i++ {
		p.Upload(batch("h", uint64(i), 2))
	}
	p.DrainAll()
	if s1.results() != 10 || s2.results() != 10 || fnCount.Load() != 10 {
		t.Fatalf("fan-out mismatch: %d / %d / %d", s1.results(), s2.results(), fnCount.Load())
	}
}

// Stats self-observability: depth high-water marks and lag are tracked.
func TestStatsDepthAndLag(t *testing.T) {
	var now int64
	sink := &collector{}
	p := New(Config{Partitions: 1, Capacity: 16, Now: func() int64 { return now }}, sink)
	for i := 1; i <= 6; i++ {
		p.Upload(batch("h", uint64(i), 1))
	}
	now = 500
	p.DrainAll()
	st := p.Stats()
	if st.Partitions[0].MaxDepth != 6 {
		t.Fatalf("max depth %d, want 6", st.Partitions[0].MaxDepth)
	}
	if st.Partitions[0].Depth != 0 {
		t.Fatalf("depth after drain %d, want 0", st.Partitions[0].Depth)
	}
	if st.Lag.Max != 500 {
		t.Fatalf("max lag %v, want 500", st.Lag.Max)
	}
}

// A quiet daemon's record path still reports queue lag: a partition's
// first enqueue is sampled, not only every lagSample-th.
func TestQuietRecordPathReportsLag(t *testing.T) {
	p := New(Config{}, &collector{})
	p.Start()
	for i := 1; i <= 3; i++ {
		p.UploadRecords(proto.RecordsFromBatch(batch("h", uint64(i), 2)))
	}
	p.Stop()
	if st := p.Stats(); st.Dequeued != 3 || st.Lag.Count < 1 {
		t.Fatalf("%d of 3 uploads dequeued, %d lag samples: want ≥ 1", st.Dequeued, st.Lag.Count)
	}
}

// signalSink hands every delivered batch to the test goroutine.
type signalSink chan *proto.RecordBatch

func (s signalSink) UploadRecords(rb *proto.RecordBatch) { s <- rb }

// Consumers park the moment their partition empties, so the condvar is
// the only way a queued batch reaches a sink: a lost wake-up strands it.
// The producer ping-pongs — one batch in, wait for it to come out — with
// successive batches on successive partitions, so nearly every enqueue
// lands on a parked consumer. Then Stop must release all four parked
// consumers.
func TestConsumerWakesOnEveryEnqueue(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const partitions, rounds = 4, 20000
			// One host per partition, taken in partition order.
			batches := make([]*proto.RecordBatch, partitions)
			for h, found := 0, 0; found < partitions; h++ {
				host := fmt.Sprintf("host-%d", h)
				if pi := PartitionKey(host, partitions); batches[pi] == nil {
					batches[pi] = &proto.RecordBatch{Host: topo.HostID(host)}
					found++
				}
			}
			out := make(signalSink, 1)
			p := New(Config{Partitions: partitions, Capacity: 4, Policy: Block})
			p.SubscribeRecords(out)
			p.Start()
			deadline := time.NewTimer(60 * time.Second)
			defer deadline.Stop()
			for i := 0; i < rounds; i++ {
				rb := batches[i%partitions]
				p.UploadRecords(rb)
				select {
				case got := <-out:
					if got != rb {
						t.Fatalf("round %d: delivered %s's batch, want %s's", i, got.Host, rb.Host)
					}
				case <-deadline.C:
					t.Fatalf("round %d: batch for partition %d never delivered (lost wake-up)", i, i%partitions)
				}
			}
			for pi, pt := range p.parts {
				for {
					pt.mu.Lock()
					parked := pt.waiting == 1
					pt.mu.Unlock()
					if parked {
						break
					}
					select {
					case <-deadline.C:
						t.Fatalf("consumer %d never parked", pi)
					case <-time.After(time.Millisecond):
					}
				}
			}
			stopped := make(chan struct{})
			go func() {
				p.Stop()
				close(stopped)
			}()
			select {
			case <-stopped:
			case <-deadline.C:
				t.Fatal("Stop hung on parked consumers")
			}
			st := p.Stats()
			if st.Enqueued != rounds || st.Dequeued != rounds || st.Delivered != rounds {
				t.Fatalf("enqueued %d, dequeued %d, delivered %d, want %d each",
					st.Enqueued, st.Dequeued, st.Delivered, rounds)
			}
		})
	}
}

// Stop flushes: batches accepted before Stop are delivered, not stranded.
func TestStopFlushes(t *testing.T) {
	sink := &collector{}
	p := New(Config{Partitions: 2, Capacity: 1024, Policy: DropNewest}, sink)
	p.Start()
	const n = 500
	for i := 1; i <= n; i++ {
		p.Upload(batch(fmt.Sprintf("h%d", i%7), uint64(i), 1))
	}
	p.Stop()
	st := p.Stats()
	if got := sink.results(); got+int(st.ResultsShed) != n {
		t.Fatalf("accounting leak: delivered %d + shed %d != %d", got, st.ResultsShed, n)
	}
	if st.Enqueued != st.Dequeued {
		t.Fatalf("stranded batches: %+v", st)
	}
}
