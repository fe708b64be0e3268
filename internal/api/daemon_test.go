package api

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/wire"
)

// fakeClock is a daemon clock the test sets; pipeline consumers read it
// concurrently.
type fakeClock struct{ t atomic.Int64 }

func (c *fakeClock) now() sim.Time { return sim.Time(c.t.Load()) }

// startDaemon runs a daemon on 127.0.0.1:0 over a small fabric at clock
// 1000 s, and closes it when the test ends.
func startDaemon(t *testing.T, console bool) (*Daemon, *fakeClock, *topo.Topology) {
	t.Helper()
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 1, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2, HostsPerToR: 1, RNICsPerHost: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DaemonConfig{Topology: tp}
	cfg.Analyzer = analyzer.Config{Window: 20 * sim.Second, Workers: 1}
	if console {
		cfg.Console.Addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{}
	clock.t.Store(int64(1000 * sim.Second))
	d, err := NewDaemon(cfg, ln, clock.now, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := d.Close(); err != nil {
			t.Error(err)
		}
	})
	return d, clock, tp
}

// dial connects an agent to d's wire server.
func dial(t *testing.T, d *Daemon) *wire.Client {
	t.Helper()
	cli, err := wire.Dial(d.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// upload sends b over cli and fails the test on a nack.
func upload(t *testing.T, cli *wire.Client, b *proto.RecordBatch) {
	t.Helper()
	cli.UploadRecords(b)
	if err := cli.Err(); err != nil {
		t.Fatal(err)
	}
}

// awaitDelivered waits until the pipeline has handed n records to its
// sinks.
func awaitDelivered(t *testing.T, d *Daemon, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for d.Pipeline.Stats().ResultsDelivered < n {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline delivered %d of %d records", d.Pipeline.Stats().ResultsDelivered, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// meshBatch is one host's upload of n ToR-mesh probe records toward dst,
// each with flags and a 10 µs RTT.
func meshBatch(tp *topo.Topology, src, dst topo.HostID, sent sim.Time, n int, flags uint8) *proto.RecordBatch {
	b := &proto.RecordBatch{Host: src, Sent: sent, Seq: 1}
	ri := b.AddRoute(proto.Route{
		Kind:   proto.ToRMesh,
		SrcDev: tp.Hosts[src].RNICs[0], SrcHost: src,
		DstDev: tp.Hosts[dst].RNICs[0], DstHost: dst,
	})
	for i := 0; i < n; i++ {
		b.Append(ri, uint64(i+1), sent, flags, 10*sim.Microsecond, 0, 0, 0)
	}
	return b
}

// TestDaemonUploadTickStream: records uploaded over TCP reach the
// Analyzer, Tick counts them in the window's report, and the console's
// window stream carries that window.
func TestDaemonUploadTickStream(t *testing.T) {
	d, clock, tp := startDaemon(t, true)
	sub := d.Console.WindowStream().Subscribe("test")
	hosts := tp.AllHosts()
	const n = 40
	upload(t, dial(t, d), meshBatch(tp, hosts[0], hosts[1], clock.now(), n, 0))
	awaitDelivered(t, d, n)

	clock.t.Add(int64(20 * sim.Second))
	rep := d.Tick()
	if rep.Cluster.Probes != n {
		t.Fatalf("window counted %d probes, want %d", rep.Cluster.Probes, n)
	}
	ev, ok := sub.TryNext()
	if !ok {
		t.Fatal("no event on the window stream")
	}
	var w struct {
		Window int   `json:"window"`
		Probes int64 `json:"probes"`
	}
	if err := json.Unmarshal(ev.Data, &w); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "window" || w.Window != rep.Index || w.Probes != n {
		t.Fatalf("stream event %s %s, want window %d with %d probes", ev.Kind, ev.Data, rep.Index, n)
	}
}

// TestDaemonStampsReceiveTime: an agent whose clock runs more than a
// window behind stamps its uploads in the past. The daemon hands the
// Analyzer its own receive time, so timeouts toward that host are not
// taken for host-down; handed the agent's Sent, the Analyzer would.
func TestDaemonStampsReceiveTime(t *testing.T) {
	// hostDownTimeouts feeds one window's two records through deliver and
	// reports what the Analyzer's host-down filter made of it. viaPipeline
	// says whether deliver's records pass the pipeline.
	hostDownTimeouts := func(viaPipeline bool, deliver func(d *Daemon, b *proto.RecordBatch)) int {
		d, clock, tp := startDaemon(t, false)
		hosts := tp.AllHosts()
		prober, skewed := hosts[0], hosts[1]
		now := clock.now()
		deliver(d, meshBatch(tp, prober, skewed, now, 1, proto.RecTimeout))
		// The skewed host's own upload: its clock is 45 s behind.
		own := meshBatch(tp, skewed, prober, now-45*sim.Second, 1, 0)
		deliver(d, own)
		if own.Sent != now-45*sim.Second {
			t.Fatalf("delivered batch's Sent rewritten to %v", own.Sent)
		}
		if viaPipeline {
			awaitDelivered(t, d, 2)
		}
		return d.Tick().HostDownTimeouts
	}

	if n := hostDownTimeouts(true, func(d *Daemon, b *proto.RecordBatch) { upload(t, dial(t, d), b) }); n != 0 {
		t.Fatalf("over the wire: %d timeouts counted host-down, want 0", n)
	}
	if n := hostDownTimeouts(false, func(d *Daemon, b *proto.RecordBatch) { d.an.UploadRecords(b) }); n == 0 {
		t.Fatal("with the agent's own Sent the timeout was not counted host-down: the test does not exercise the stamp")
	}
}

// TestDaemonCloseKeepsEveryAckedUpload: uploads keep arriving while the
// daemon closes. Every upload it acked must have been delivered, and
// nothing may be left queued: the wire server stops taking uploads
// before the pipeline's final drain.
func TestDaemonCloseKeepsEveryAckedUpload(t *testing.T) {
	d, _, _ := startDaemon(t, true)
	const uploaders, ackedBeforeStop = 16, 200
	var acked atomic.Int64
	ready := make(chan struct{}) // closed at the ackedBeforeStop-th ack
	quit := make(chan struct{})
	var wg sync.WaitGroup
	for u := 0; u < uploaders; u++ {
		cli := dial(t, d)
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			host := topo.HostID(fmt.Sprintf("host-%d", u))
			for seq := uint64(1); ; seq++ {
				select {
				case <-quit:
					return
				default:
				}
				b := &proto.RecordBatch{Host: host, Sent: sim.Time(seq), Seq: seq}
				ri := b.AddRoute(proto.Route{Kind: proto.ToRMesh, SrcHost: host})
				b.Append(ri, seq, 0, 0, sim.Microsecond, 0, 0, 0)
				cli.UploadRecords(b)
				if cli.Err() == nil && acked.Add(1) == ackedBeforeStop {
					close(ready)
				}
			}
		}(u)
	}
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d uploads acked", acked.Load())
	}
	err := d.Close()
	close(quit)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	st := d.Pipeline.Stats()
	if st.Enqueued != st.Dequeued {
		t.Fatalf("%d enqueued, %d dequeued: %d uploads left queued", st.Enqueued, st.Dequeued, st.Enqueued-st.Dequeued)
	}
	if n := acked.Load(); st.Dequeued < uint64(n) {
		t.Fatalf("%d uploads acked, only %d dequeued", n, st.Dequeued)
	}
}
