package wire

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rpingmesh/internal/pipeline"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// nopSink takes uploads on both surfaces and drops them.
type nopSink struct{}

func (nopSink) Upload(proto.UploadBatch)         {}
func (nopSink) UploadRecords(*proto.RecordBatch) {}

// agentBatch has the shape of one simulated agent's 5 s upload on the
// 256-host fabric (what bench/'s live workloads replay): 62 records over
// 13 routes — ToR-mesh and inter-ToR targets with their traced paths.
func agentBatch() *proto.RecordBatch {
	const routes, records = 13, 62
	rb := &proto.RecordBatch{Host: "host-3-215", Sent: 40 * sim.Second, Seq: 8}
	for i := 0; i < routes; i++ {
		rt := proto.Route{
			Kind:   proto.ToRMesh,
			SrcDev: "rnic-3-215-0", SrcHost: rb.Host,
			DstDev:  topo.DeviceID(fmt.Sprintf("rnic-3-%d-0", 200+i)),
			DstHost: topo.HostID(fmt.Sprintf("host-3-%d", 200+i)),
			SrcIP:   netip.AddrFrom4([4]byte{10, 3, 215, 1}),
			DstIP:   netip.AddrFrom4([4]byte{10, 3, byte(200 + i), 1}),
			SrcPort: uint16(49152 + i), DstQPN: rnic.QPN(0x11 + i),
			ProbePath: []topo.LinkID{topo.LinkID(4000 + i), topo.LinkID(4100 + i)},
			AckPath:   []topo.LinkID{topo.LinkID(4101 + i), topo.LinkID(4001 + i)},
		}
		if i >= 6 {
			rt.Kind = proto.InterToR
			rt.ProbePath = append(rt.ProbePath, 5000, 5100, topo.LinkID(5200+i), topo.LinkID(5300+i))
			rt.AckPath = append(rt.AckPath, 5101, 5001, topo.LinkID(5201+i), topo.LinkID(5301+i))
		}
		rb.AddRoute(rt)
	}
	for i := 0; i < records; i++ {
		var flags uint8
		if i%31 == 30 {
			flags = proto.RecTimeout
		}
		rb.Append(int32(i%routes), uint64(1000+i), 35*sim.Second+sim.Time(i)*80*sim.Millisecond, flags, 4500+sim.Time(i), 300, 250, 0)
	}
	return rb
}

// BenchmarkWireUpload is one synchronous upload round trip over
// loopback, into a server whose sink takes flat batches (as the ingest
// pipeline does): encode, frame, write, server read + decode + sink
// call, ack. One op is one agentBatch. Upload starts from the boxed
// batch (bench/'s path and any UploadSink caller's), UploadRecords from
// the flat one (an agent's).
func BenchmarkWireUpload(b *testing.B) {
	rb := agentBatch()
	ub := rb.ToUploadBatch()
	for _, surface := range []struct {
		name string
		send func(*Client)
	}{
		{"Upload", func(c *Client) { c.Upload(ub) }},
		{"UploadRecords", func(c *Client) { c.UploadRecords(rb) }},
	} {
		b.Run(surface.name, func(b *testing.B) {
			srv, err := Listen("127.0.0.1:0", nil, nopSink{})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			cli, err := Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer cli.Close()
			surface.send(cli) // size the buffers
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				surface.send(cli)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if err := cli.Err(); err != nil {
				b.Fatal(err)
			}
			records := float64(rb.Len())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/records, "ns/record")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/records, "allocs/record")
			// Both directions: the record frame and its ack.
			b.ReportMetric(float64(len(cli.f.wbuf)+headerLen+1)/records, "wireB/record")
		})
	}
}

// BenchmarkWireIngest is the daemon's ingest hand-off: two clients
// upload concurrently into a server whose sink is a started 4-partition
// Block pipeline, and the pipeline's consumers deliver to a nop record
// sink. One op is one agentBatch upload, acknowledged. BenchmarkWireUpload
// stops at the server's sink call and BenchmarkPipelineIngest has no
// socket; this one covers how consumers wait for work beside the network
// poller. GOMAXPROCS is set per sub-benchmark, so the single-P run — where
// a consumer that yields instead of parking starves the sockets — is
// measured on any runner.
func BenchmarkWireIngest(b *testing.B) {
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			pipe := pipeline.New(pipeline.Config{Partitions: 4, Policy: pipeline.Block})
			pipe.SubscribeRecords(nopSink{})
			pipe.Start()
			defer pipe.Stop()
			srv, err := Listen("127.0.0.1:0", nil, pipe)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			const clients = 2
			var clis [clients]*Client
			var rbs [clients]*proto.RecordBatch
			for c := range clis {
				if clis[c], err = Dial(srv.Addr()); err != nil {
					b.Fatal(err)
				}
				defer clis[c].Close()
				rbs[c] = agentBatch()
				rbs[c].Host = topo.HostID(fmt.Sprintf("host-3-%d", 215+c))
				clis[c].UploadRecords(rbs[c]) // size the buffers
			}
			var ops atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for c := range clis {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for ops.Add(1) <= int64(b.N) {
						clis[c].UploadRecords(rbs[c])
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			for _, cli := range clis {
				if err := cli.Err(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rbs[0].Len()), "ns/record")
		})
	}
}
