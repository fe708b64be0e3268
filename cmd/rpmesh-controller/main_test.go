package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/controller"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/wire"
)

// syncBuffer is the daemon's stdout in tests: written by run, read by
// the test while run is still going. wrote is signalled after each write.
type syncBuffer struct {
	mu    sync.Mutex
	b     bytes.Buffer
	wrote chan struct{}
}

func newSyncBuffer() *syncBuffer { return &syncBuffer{wrote: make(chan struct{}, 1)} }

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.wrote <- struct{}{}:
	default:
	}
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitFor waits for a line "prefix<value>" in out and returns value.
func waitFor(t *testing.T, out *syncBuffer, prefix string) string {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		for _, line := range strings.Split(out.String(), "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				return v
			}
		}
		select {
		case <-out.wrote:
		case <-timeout:
			t.Fatalf("no %q line in:\n%s", prefix, out.String())
		}
	}
}

var finalRE = regexp.MustCompile(`(?m)^final pipeline: in=(\d+) out=(\d+) `)

// TestShutdownKeepsEveryAckedUpload: uploads keep arriving while the
// daemon shuts down. Every upload it acked must have been delivered, and
// nothing may be left queued: the wire server stops taking uploads
// before the pipeline's final drain.
func TestShutdownKeepsEveryAckedUpload(t *testing.T) {
	out := newSyncBuffer()
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-stats", "1h", "-analyzer-window", "1h", "-workers", "1"}, out, stop)
	}()
	addr := waitFor(t, out, "wire-addr=")

	const uploaders, ackedBeforeStop = 16, 200
	var acked atomic.Int64
	ready := make(chan struct{}) // closed at the ackedBeforeStop-th ack
	quit := make(chan struct{})
	var wg sync.WaitGroup
	for u := 0; u < uploaders; u++ {
		cli, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			defer cli.Close()
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
	stop <- syscall.SIGTERM
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	close(quit)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	m := finalRE.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no final pipeline line in:\n%s", out.String())
	}
	in, _ := strconv.ParseInt(m[1], 10, 64)
	dequeued, _ := strconv.ParseInt(m[2], 10, 64)
	if in != dequeued {
		t.Fatalf("final pipeline: %d enqueued, %d dequeued: %d uploads left queued", in, dequeued, in-dequeued)
	}
	if n := acked.Load(); dequeued < n {
		t.Fatalf("%d uploads acked, only %d dequeued", n, dequeued)
	}
}

// TestAnalyzerTierStampsReceiveTime: an agent whose clock runs more than
// a window behind stamps its uploads in the past. Through analyzerTier
// the Analyzer sees the receive time, so timeouts toward that host are
// not taken for host-down; handed the agent's own Sent, it would.
func TestAnalyzerTierStampsReceiveTime(t *testing.T) {
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 1, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2, HostsPerToR: 1, RNICsPerHost: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	hosts := tp.AllHosts()
	prober, skewed := hosts[0], hosts[1]
	const window = 20 * sim.Second

	// hostDownTimeouts feeds one window through deliver and reports what
	// the Analyzer's host-down filter made of it.
	hostDownTimeouts := func(deliver func(an *analyzer.Analyzer, b *proto.RecordBatch)) int {
		eng := sim.New(0)
		eng.RunUntil(sim.Time(time.Now().UnixNano()))
		ctrl := controller.New(eng, tp, controller.Config{})
		an := analyzer.New(eng, tp, ctrl, analyzer.Config{Window: window, Workers: 1})
		now := eng.Now()

		probe := &proto.RecordBatch{Host: prober, Sent: now, Seq: 1}
		ri := probe.AddRoute(proto.Route{
			Kind:   proto.ToRMesh,
			SrcDev: tp.Hosts[prober].RNICs[0], SrcHost: prober,
			DstDev: tp.Hosts[skewed].RNICs[0], DstHost: skewed,
		})
		probe.Append(ri, 1, now, proto.RecTimeout, 0, 0, 0, 0)
		deliver(an, probe)

		// The skewed host's own upload: its clock is 45 s behind.
		own := &proto.RecordBatch{Host: skewed, Sent: now - 45*sim.Second, Seq: 1}
		deliver(an, own)
		if own.Sent != now-45*sim.Second {
			t.Fatalf("delivered batch's Sent rewritten to %v", own.Sent)
		}
		return an.Tick().HostDownTimeouts
	}

	if n := hostDownTimeouts(func(an *analyzer.Analyzer, b *proto.RecordBatch) { analyzerTier{an}.UploadRecords(b) }); n != 0 {
		t.Fatalf("through analyzerTier: %d timeouts counted host-down, want 0", n)
	}
	if n := hostDownTimeouts(func(an *analyzer.Analyzer, b *proto.RecordBatch) { an.UploadRecords(b) }); n == 0 {
		t.Fatal("with the agent's own Sent the timeout was not counted host-down: the test does not exercise the stamp")
	}
}
