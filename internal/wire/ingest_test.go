package wire_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/controller"
	"rpingmesh/internal/pipeline"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/tsdb"
	"rpingmesh/internal/wire"
)

// front stands where wire.Serve hands uploads to the pipeline and keeps
// the server's side of the ledger: which (host, Seq) batches it handed
// over, how often, and how many records that was.
type front struct {
	pipe *pipeline.Pipeline

	mu      sync.Mutex
	seen    map[topo.HostID]map[uint64]int
	records uint64
	boxed   int // Upload calls: the server must not box for a RecordSink
}

func (f *front) Upload(proto.UploadBatch) {
	f.mu.Lock()
	f.boxed++
	f.mu.Unlock()
}

func (f *front) UploadRecords(b *proto.RecordBatch) {
	f.mu.Lock()
	if f.seen[b.Host] == nil {
		f.seen[b.Host] = make(map[uint64]int)
	}
	f.seen[b.Host][b.Seq]++
	f.records += uint64(b.Len())
	f.mu.Unlock()
	f.pipe.UploadRecords(b)
}

// recordOrder is a boxed pipeline subscriber checking per-host FIFO
// record by record. Each client numbers its host's records 0, 1, 2, …
// across batches; the stream a host's deliveries make must introduce
// them in that order. A record seen before is a resent frame's (the
// handler of a severed session may hand its frame over after the resend
// was taken — at-least-once, and late); a record that skips ahead
// overtook one it followed.
type recordOrder struct {
	mu   sync.Mutex
	next map[topo.HostID]uint64
	dups uint64
	bad  []string
}

func (o *recordOrder) Upload(b proto.UploadBatch) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i := range b.Results {
		switch seq, next := b.Results[i].Seq, o.next[b.Host]; {
		case seq == next:
			o.next[b.Host]++
		case seq < next:
			o.dups++
		default:
			o.bad = append(o.bad, fmt.Sprintf("%s: record %d arrived before record %d", b.Host, seq, next))
		}
	}
}

// TestDaemonIngestWiring runs the daemon's real ingest wiring —
// wire.Serve → concurrent pipeline (4 partitions, Block) → analyzer +
// tsdb record sink + a boxed subscriber — under 8 concurrent clients on
// both upload surfaces while the server severs every session mid-stream.
// Every record the server handed over is delivered exactly once to every
// sink, every batch a client sent arrived, a sever resends a frame at
// most once, and per-host record order holds end to end.
func TestDaemonIngestWiring(t *testing.T) {
	tp, err := topo.BuildClos(topo.ClosConfig{Pods: 1, ToRsPerPod: 2, AggsPerPod: 1, Spines: 1, HostsPerToR: 4, RNICsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := controller.New(sim.New(1), tp, controller.Config{})
	an := analyzer.New(sim.New(0), tp, ctrl, analyzer.Config{Window: 20 * sim.Second})
	db := tsdb.Open(tsdb.Config{})
	order := &recordOrder{next: make(map[topo.HostID]uint64)}
	// A small capacity keeps the producers in Block waits.
	pipe := pipeline.New(pipeline.Config{Partitions: 4, Capacity: 4, Policy: pipeline.Block}, order, an)
	pipe.SubscribeRecords(db)
	pipe.Start()
	fr := &front{pipe: pipe, seen: make(map[topo.HostID]map[uint64]int)}
	srv, err := wire.Listen("127.0.0.1:0", ctrl, fr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients, batches, perBatch = 8, 120, 16
	hosts := tp.AllHosts()
	var uploaded atomic.Int64         // batches acknowledged, all clients
	quarter := make(chan struct{}, 3) // one send per quarter of the stream
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cli, err := wire.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			host := hosts[c]
			dev := tp.Hosts[host].RNICs[0]
			rb := &proto.RecordBatch{Host: host}
			for seq := uint64(1); seq <= batches; seq++ {
				rb.Reset()
				rb.Seq, rb.Sent = seq, sim.Time(seq)
				routes := []int32{
					rb.AddRoute(proto.Route{Kind: proto.ToRMesh, SrcDev: dev, SrcHost: host, DstHost: hosts[(c+1)%clients], ProbePath: []topo.LinkID{1, 2}}),
					rb.AddRoute(proto.Route{Kind: proto.InterToR, SrcDev: dev, SrcHost: host, DstHost: hosts[(c+2)%clients]}),
				}
				for i := uint64(0); i < perBatch; i++ {
					rb.Append(routes[i%2], (seq-1)*perBatch+i, sim.Time(i), 0, 4000, 100, 100, 0)
				}
				// At-least-once, as an agent's next upload would be: a batch
				// whose resend was severed too is offered again.
				for try := 0; ; try++ {
					if c%2 == 0 {
						cli.UploadRecords(rb)
					} else {
						cli.Upload(rb.ToUploadBatch())
					}
					if cli.Err() == nil {
						break
					}
					if try == 10 {
						t.Errorf("%s seq %d: %v", host, seq, cli.Err())
						return
					}
				}
				if n := uploaded.Add(1); n%(clients*batches/4) == 0 && n < clients*batches {
					quarter <- struct{}{}
				}
			}
		}()
	}
	// Sever every session at each quarter of the stream.
	done := make(chan struct{})
	severed := 0
	var severWG sync.WaitGroup
	severWG.Add(1)
	go func() {
		defer severWG.Done()
		for {
			select {
			case <-quarter:
				severed += srv.DisconnectAll()
			case <-done:
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	severWG.Wait()
	pipe.Stop()
	if t.Failed() {
		return
	}

	st := pipe.Stats()
	if err := st.AccountingError(); err != nil {
		t.Fatal(err)
	}
	if st.Dropped() != 0 {
		t.Fatalf("Block policy dropped %d batches", st.Dropped())
	}
	if fr.boxed != 0 {
		t.Fatalf("server boxed %d uploads for a RecordSink", fr.boxed)
	}
	handed := fr.records
	if st.ResultsDelivered != handed || db.Stats().IngestedRecords != handed || uint64(an.PendingResults()) != handed {
		t.Fatalf("server handed over %d records; pipeline delivered %d, tsdb ingested %d, analyzer holds %d",
			handed, st.ResultsDelivered, db.Stats().IngestedRecords, an.PendingResults())
	}
	if severed == 0 {
		t.Fatal("no session was severed mid-stream")
	}
	twice := 0
	for c := 0; c < clients; c++ {
		seen := fr.seen[hosts[c]]
		for seq := uint64(1); seq <= batches; seq++ {
			switch n := seen[seq]; {
			case n == 0:
				t.Fatalf("%s seq %d never arrived", hosts[c], seq)
			case n == 2:
				twice++
			case n > 2:
				t.Fatalf("%s seq %d arrived %d times", hosts[c], seq, n)
			}
		}
		if len(seen) != batches {
			t.Fatalf("%s: %d distinct batches arrived, want %d", hosts[c], len(seen), batches)
		}
	}
	// A frame is resent only when its session was severed under it.
	if twice > severed {
		t.Fatalf("%d batches arrived twice for %d severed sessions", twice, severed)
	}
	if want := uint64(clients*batches+twice) * perBatch; handed != want {
		t.Fatalf("server handed over %d records, want %d (%d resends)", handed, want, twice)
	}
	if len(order.bad) > 0 {
		t.Fatalf("per-host order broken: %v", order.bad)
	}
	if order.dups != uint64(twice)*perBatch {
		t.Fatalf("subscriber saw %d repeated records, want %d", order.dups, twice*perBatch)
	}
	for c := 0; c < clients; c++ {
		if got := order.next[hosts[c]]; got != batches*perBatch {
			t.Fatalf("%s: subscriber saw records up to %d, want %d", hosts[c], got, batches*perBatch)
		}
	}
}
