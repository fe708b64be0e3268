package main

import (
	"bytes"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/api"
	"rpingmesh/internal/controller"
	"rpingmesh/internal/pipeline"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
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

// TestRunServesUntilSignal boots the binary's run loop with both
// listeners on :0 and short tickers, waits for every periodic line, and
// stops it the way a SIGTERM does.
func TestRunServesUntilSignal(t *testing.T) {
	out := newSyncBuffer()
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-serve", "127.0.0.1:0",
			"-stats", "20ms", "-analyzer-window", "20ms", "-workers", "1"}, out, stop)
	}()
	for _, prefix := range []string{"ops console serving http://", "http-addr=", "rpmesh-controller serving ",
		"wire-addr=", "analyzer: window=", "registered=", "  pipeline: in="} {
		waitFor(t, out, prefix)
	}
	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	waitFor(t, out, "shutting down")
	waitFor(t, out, "final pipeline: in=0 out=0 ")
}

// clos builds the fabric a flag set describes.
func clos(t *testing.T, c topo.ClosConfig) *topo.Topology {
	t.Helper()
	tp, err := topo.BuildClos(c)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// shape summarises a fabric for comparison.
func shape(tp *topo.Topology) [4]int {
	return [4]int{len(tp.Hosts), len(tp.RNICs), len(tp.Switches), len(tp.Links)}
}

// TestParseFlags: every flag lands in its field of the daemon's
// configuration or of the process options, and nothing else moves.
func TestParseFlags(t *testing.T) {
	defClos := topo.ClosConfig{Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4, HostsPerToR: 2, RNICsPerHost: 2}
	withClos := func(f func(c *topo.ClosConfig)) func(*api.DaemonConfig, *options) {
		return func(cfg *api.DaemonConfig, _ *options) {
			c := defClos
			f(&c)
			cfg.Topology = clos(t, c)
		}
	}
	cases := []struct {
		args []string
		want func(*api.DaemonConfig, *options)
	}{
		{nil, func(*api.DaemonConfig, *options) {}},
		{[]string{"-listen", "127.0.0.1:9"}, func(_ *api.DaemonConfig, o *options) { o.listen = "127.0.0.1:9" }},
		{[]string{"-pods", "3"}, withClos(func(c *topo.ClosConfig) { c.Pods = 3 })},
		{[]string{"-tors", "3"}, withClos(func(c *topo.ClosConfig) { c.ToRsPerPod = 3 })},
		{[]string{"-aggs", "4"}, withClos(func(c *topo.ClosConfig) { c.AggsPerPod = 4 })},
		{[]string{"-spines", "2"}, withClos(func(c *topo.ClosConfig) { c.Spines = 2 })},
		{[]string{"-hosts", "3"}, withClos(func(c *topo.ClosConfig) { c.HostsPerToR = 3 })},
		{[]string{"-rnics", "1"}, withClos(func(c *topo.ClosConfig) { c.RNICsPerHost = 1 })},
		{[]string{"-partitions", "2"}, func(c *api.DaemonConfig, _ *options) { c.Pipeline.Partitions = 2 }},
		{[]string{"-capacity", "8"}, func(c *api.DaemonConfig, _ *options) { c.Pipeline.Capacity = 8 }},
		{[]string{"-policy", "drop-newest"}, func(c *api.DaemonConfig, _ *options) { c.Pipeline.Policy = pipeline.DropNewest }},
		{[]string{"-stats", "2s"}, func(_ *api.DaemonConfig, o *options) { o.statsEvery = 2 * time.Second }},
		{[]string{"-workers", "3"}, func(c *api.DaemonConfig, _ *options) { c.Analyzer.Workers = 3 }},
		{[]string{"-analyzer-window", "5s"}, func(c *api.DaemonConfig, _ *options) { c.Analyzer.Window = 5 * sim.Second }},
		{[]string{"-localizer", "007"}, func(c *api.DaemonConfig, _ *options) { c.Analyzer.Localizer = analyzer.Localizer007 }},
		{[]string{"-serve", ":0"}, func(c *api.DaemonConfig, _ *options) { c.Console.Addr = ":0" }},
		{[]string{"-tenants", "gold:4,bronze:1:50"}, func(c *api.DaemonConfig, _ *options) {
			c.Controller.Tenants = []controller.TenantConfig{{Name: "gold", Weight: 4}, {Name: "bronze", Weight: 1, MaxPPS: 50}}
		}},
		{[]string{"-tenant-pps", "500"}, func(c *api.DaemonConfig, _ *options) { c.Controller.TenantCapacityPPS = 500 }},
		{[]string{"-cpuprofile", "cpu.out"}, func(_ *api.DaemonConfig, o *options) { o.cpuProfile = "cpu.out" }},
		{[]string{"-memprofile", "mem.out"}, func(_ *api.DaemonConfig, o *options) { o.memProfile = "mem.out" }},
	}
	for _, c := range cases {
		cfg, opt, err := parseFlags(c.args)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		wantCfg := api.DaemonConfig{
			Topology: clos(t, defClos),
			Pipeline: pipeline.Config{Partitions: 4, Capacity: 256, Policy: pipeline.Block},
			Analyzer: analyzer.Config{Workers: runtime.GOMAXPROCS(0), Window: 20 * sim.Second},
		}
		wantOpt := options{listen: "127.0.0.1:7201", statsEvery: 10 * time.Second}
		c.want(&wantCfg, &wantOpt)
		if shape(cfg.Topology) != shape(wantCfg.Topology) {
			t.Errorf("%v: fabric %v, want %v", c.args, shape(cfg.Topology), shape(wantCfg.Topology))
		}
		cfg.Topology, wantCfg.Topology = nil, nil
		if !reflect.DeepEqual(cfg, wantCfg) || opt != wantOpt {
			t.Errorf("%v:\n got %+v %+v\nwant %+v %+v", c.args, cfg, opt, wantCfg, wantOpt)
		}
	}
}

// TestRunRejectsBadValuesBeforeBinding: a bad -policy, -tenants,
// -localizer, -analyzer-window or -stats fails run before it binds anything, so it reports the flag
// even when -listen names an address that is taken, and prints nothing.
func TestRunRejectsBadValuesBeforeBinding(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	for _, bad := range [][]string{
		{"-policy", "drop-all"},
		{"-tenants", "gold:x"},
		{"-localizer", "majority"},
		{"-analyzer-window", "0s"},
		{"-stats", "-1s"},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-listen", taken.Addr().String()}, bad...), &out, nil)
		if err == nil || !strings.HasPrefix(err.Error(), bad[0]+":") {
			t.Errorf("%v: err = %v, want a %s error", bad, err, bad[0])
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q", bad, out.String())
		}
	}
}
