package wire

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"rpingmesh/internal/proto"
	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// recordArm is a sink with the flat-path surface: the server must hand
// it the decoded batch and never the boxed form. It keeps the boxed view
// of what it was lent.
type recordArm struct {
	memSink
	boxedCalls int
}

func (r *recordArm) Upload(b proto.UploadBatch) {
	r.mu.Lock()
	r.boxedCalls++
	r.mu.Unlock()
}

func (r *recordArm) UploadRecords(b *proto.RecordBatch) { r.memSink.Upload(b.ToUploadBatch()) }

// randomUpload draws a boxed batch the way agents and tests produce
// them: results picked from a small pool of routes (so addressing fields
// and path slices are shared, as after ToUploadBatch), timeouts, one-way
// probes, invalid/v4/v6 addresses, missing paths, sometimes no results.
func randomUpload(rng *rand.Rand) proto.UploadBatch {
	ub := proto.UploadBatch{
		Host: topo.HostID(fmt.Sprintf("host-%d", rng.Intn(4))),
		Sent: sim.Time(rng.Int63()),
		Seq:  rng.Uint64(),
	}
	addr := func() netip.Addr {
		switch rng.Intn(3) {
		case 0:
			return netip.Addr{}
		case 1:
			return netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), 1})
		default:
			var a [16]byte
			rng.Read(a[:])
			a[0] = 0xfd // keep clear of the v4-mapped range, which As16/Unmap would fold
			return netip.AddrFrom16(a)
		}
	}
	path := func() []topo.LinkID {
		if rng.Intn(3) == 0 {
			return nil
		}
		p := make([]topo.LinkID, 1+rng.Intn(6))
		for i := range p {
			p[i] = topo.LinkID(rng.Int63n(1 << 40))
		}
		return p
	}
	routes := make([]proto.ProbeResult, 1+rng.Intn(5))
	for i := range routes {
		routes[i] = proto.ProbeResult{
			Kind:   proto.ProbeKind(rng.Intn(3)),
			SrcDev: topo.DeviceID(fmt.Sprintf("rnic-%d", rng.Intn(3))), SrcHost: ub.Host,
			DstDev: topo.DeviceID(fmt.Sprintf("rnic-%d", rng.Intn(3))), DstHost: topo.HostID(fmt.Sprintf("host-%d", rng.Intn(4))),
			SrcIP: addr(), DstIP: addr(),
			SrcPort: uint16(rng.Intn(1 << 16)), DstQPN: rnic.QPN(rng.Uint32()),
			ProbePath: path(), AckPath: path(),
		}
	}
	for n := rng.Intn(40); n > 0; n-- { // 0 keeps Results nil
		p := routes[rng.Intn(len(routes))]
		p.Seq, p.SentAt = rng.Uint64(), sim.Time(rng.Int63())
		switch rng.Intn(4) {
		case 0:
			p.Timeout = true
		case 1:
			p.OneWay, p.OneWayDelay = true, sim.Time(rng.Int63n(1e6))
			p.NetworkRTT = 2 * p.OneWayDelay
		default:
			p.NetworkRTT, p.ProberDelay, p.ResponderDelay = sim.Time(rng.Int63n(1e7)), sim.Time(rng.Int63n(1e5)), -sim.Time(rng.Int63n(1e5))
		}
		ub.Results = append(ub.Results, p)
	}
	return ub
}

// TestUploadDeliversWhatWasSent: Client.Upload's direct boxed → flat
// encoding loses nothing. Over loopback, through the server's RecordSink
// arm and its boxed-fallback arm, the sink's view of every batch is
// DeepEqual to the one uploaded, and UploadRecords of the flat form
// delivers the same.
func TestUploadDeliversWhatWasSent(t *testing.T) {
	ctrl, _ := testBackend(t)
	flat, boxed := &recordArm{}, &memSink{}
	_, flatCli := startServer(t, ctrl, flat)
	_, boxedCli := startServer(t, ctrl, boxed)

	rng := rand.New(rand.NewSource(14))
	var sent []proto.UploadBatch
	for i := 0; i < 200; i++ {
		ub := randomUpload(rng)
		if i == 0 {
			ub = proto.UploadBatch{} // the zero batch
		}
		flatCli.Upload(ub)
		boxedCli.Upload(ub)
		flatCli.UploadRecords(proto.RecordsFromBatch(ub))
		sent = append(sent, ub, ub)
		if err := flatCli.Err(); err != nil {
			t.Fatalf("batch %d, record arm: %v", i, err)
		}
		if err := boxedCli.Err(); err != nil {
			t.Fatalf("batch %d, boxed arm: %v", i, err)
		}
	}
	if flat.boxedCalls != 0 {
		t.Fatalf("server boxed %d uploads for a RecordSink", flat.boxedCalls)
	}
	if len(flat.batches) != len(sent) || len(boxed.batches) != len(sent)/2 {
		t.Fatalf("delivered %d and %d batches, want %d and %d", len(flat.batches), len(boxed.batches), len(sent), len(sent)/2)
	}
	for i, want := range sent {
		if got := flat.batches[i]; !reflect.DeepEqual(got, want) {
			t.Fatalf("record arm, delivery %d:\n got %+v\nwant %+v", i, got, want)
		}
		if i%2 == 0 {
			if got := boxed.batches[i/2]; !reflect.DeepEqual(got, want) {
				t.Fatalf("boxed arm, batch %d:\n got %+v\nwant %+v", i/2, got, want)
			}
		}
	}
}

// TestConcurrentUploadsShareNoBuffers: a Client's encoder scratch and
// frame buffers are per client and guarded by its mutex — several
// goroutines on one client, and several clients on one server, deliver
// every batch intact.
func TestConcurrentUploadsShareNoBuffers(t *testing.T) {
	ctrl, _ := testBackend(t)
	sink := &memSink{}
	srv, shared := startServer(t, ctrl, sink)

	const workers, each = 6, 40
	want := make(map[uint64]proto.UploadBatch)
	var wmu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		cli := shared
		if w%2 == 1 {
			var err error
			if cli, err = Dial(srv.Addr()); err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < each; i++ {
				ub := randomUpload(rng)
				ub.Seq = uint64(w*each + i)
				wmu.Lock()
				want[ub.Seq] = ub
				wmu.Unlock()
				if i%2 == 0 {
					cli.Upload(ub)
				} else {
					cli.UploadRecords(proto.RecordsFromBatch(ub))
				}
			}
		}()
	}
	wg.Wait()
	if sink.count() != workers*each {
		t.Fatalf("sink got %d batches, want %d", sink.count(), workers*each)
	}
	for _, got := range sink.batches {
		if !reflect.DeepEqual(got, want[got.Seq]) {
			t.Fatalf("batch %d arrived damaged:\n got %+v\nwant %+v", got.Seq, got, want[got.Seq])
		}
	}
}
