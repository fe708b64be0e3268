//go:build !chaosbreak

package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// TestAccountingExactUnderConcurrentOverload hammers a small pipeline
// from many producers under each overload policy and then audits the
// conservation law the chaos harness checks every window: per partition,
// enqueued = dequeued + dropped-oldest + depth; globally, every batch
// sent is either admitted or counted rejected, and every probe result is
// either delivered downstream or counted shed. An independent sink-side
// tally cross-checks the pipeline's own delivery counters.
func TestAccountingExactUnderConcurrentOverload(t *testing.T) {
	const (
		producers   = 8
		perProducer = 500
		resultsPer  = 3
	)
	for _, pol := range []Policy{Block, DropOldest, DropNewest} {
		t.Run(pol.String(), func(t *testing.T) {
			var delivered, deliveredResults atomic.Uint64
			p := New(Config{Partitions: 4, Capacity: 8, Policy: pol})
			p.SubscribeRecords(recordFunc(func(b *proto.RecordBatch) {
				delivered.Add(1)
				deliveredResults.Add(uint64(b.Len()))
			}))
			p.Start()

			var wg sync.WaitGroup
			for g := 0; g < producers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					host := topo.HostID(fmt.Sprintf("host-%d", g))
					for i := 0; i < perProducer; i++ {
						p.Upload(proto.UploadBatch{
							Host:    host,
							Sent:    sim.Time(i),
							Seq:     uint64(i + 1),
							Results: make([]proto.ProbeResult, resultsPer),
						})
					}
				}(g)
			}
			wg.Wait()
			p.Stop() // flushes every queue

			st := p.Stats()
			if err := st.AccountingError(); err != nil {
				t.Fatalf("conservation law violated: %v", err)
			}

			const totalBatches = producers * perProducer
			const totalResults = totalBatches * resultsPer
			if got := st.Enqueued + st.DroppedNewest; got != totalBatches {
				t.Fatalf("admitted+rejected = %d, want %d batches", got, totalBatches)
			}
			if got := st.ResultsDelivered + st.ResultsShed; got != totalResults {
				t.Fatalf("delivered+shed results = %d, want %d", got, totalResults)
			}
			if st.Delivered != delivered.Load() {
				t.Fatalf("pipeline claims %d deliveries, sink saw %d", st.Delivered, delivered.Load())
			}
			if st.ResultsDelivered != deliveredResults.Load() {
				t.Fatalf("pipeline claims %d delivered results, sink saw %d",
					st.ResultsDelivered, deliveredResults.Load())
			}

			switch pol {
			case Block:
				if st.Dropped() != 0 || st.ResultsShed != 0 {
					t.Fatalf("Block dropped %d batches / shed %d results; must lose nothing",
						st.Dropped(), st.ResultsShed)
				}
				if st.ResultsDelivered != totalResults {
					t.Fatalf("Block delivered %d results, want all %d", st.ResultsDelivered, totalResults)
				}
			case DropOldest:
				if st.DroppedNewest != 0 {
					t.Fatalf("DropOldest rejected %d new batches", st.DroppedNewest)
				}
			case DropNewest:
				if st.DroppedOldest != 0 {
					t.Fatalf("DropNewest shed %d old batches", st.DroppedOldest)
				}
			}
		})
	}
}
