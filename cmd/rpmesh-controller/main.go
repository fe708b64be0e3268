// Command rpmesh-controller runs the live R-Pingmesh deployment of the
// paper's Figure 3 over TCP: the Controller, the telemetry ingest tier
// (pipeline + time-series store, the Kafka/Flink/DB slice) and the full
// Analyzer, assembled by internal/api.NewDaemon. Agents connect with
// internal/wire.Client, register their RNIC communication info, pull
// pinglists, and push probe-result batches; batches flow through a
// sharded bounded pipeline as flat record batches into the Analyzer and
// the bounded tsdb's sketch tier (per-host ingest.rtt.<host> quantiles).
//
// Every -analyzer-window the Analyzer classifies the window's probes,
// detects anomalous RNICs, votes on switch links, and aggregates SLAs,
// sharding the data-parallel stages across -workers goroutines (the
// multicore win the deterministic simulations deliberately forgo).
//
// With -serve, the daemon additionally exposes the ops-console HTTP API
// (internal/api): incidents folded by the alert engine from every
// analyzer window, window reports by sequence number, tsdb range and
// quantile queries, and pipeline self-metrics.
//
// This command parses flags, binds the agent listener, and drives the
// daemon's window and stats tickers until a signal; everything it prints
// is formatted here.
//
// Usage:
//
//	rpmesh-controller [-listen 127.0.0.1:7201] [-partitions 4 -capacity 256 -policy block]
//	                  [-pods 2 -tors 2 -aggs 2 -spines 4 -hosts 2 -rnics 2]
//	                  [-workers N -analyzer-window 20s] [-serve :8080]
//	                  [-tenants gold:4,silver:2,bronze:1 -tenant-pps 500]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/api"
	"rpingmesh/internal/controller"
	"rpingmesh/internal/pipeline"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, sig); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// options are the flags that configure this process, not the daemon.
type options struct {
	listen                 string
	statsEvery             time.Duration
	cpuProfile, memProfile string
}

// parseFlags turns args into the daemon's configuration. A bad policy,
// tenant list, localizer, interval or fabric is rejected here, before
// anything binds.
func parseFlags(args []string) (api.DaemonConfig, options, error) {
	var cfg api.DaemonConfig
	var opt options
	fs := flag.NewFlagSet("rpmesh-controller", flag.ContinueOnError)
	fs.StringVar(&opt.listen, "listen", "127.0.0.1:7201", "TCP listen address")
	pods := fs.Int("pods", 2, "CLOS pods")
	tors := fs.Int("tors", 2, "ToRs per pod")
	aggs := fs.Int("aggs", 2, "Aggs per pod")
	spines := fs.Int("spines", 4, "spines")
	hosts := fs.Int("hosts", 2, "hosts per ToR")
	rnics := fs.Int("rnics", 2, "RNICs per host")
	fs.IntVar(&cfg.Pipeline.Partitions, "partitions", 4, "ingest pipeline partitions")
	fs.IntVar(&cfg.Pipeline.Capacity, "capacity", 256, "per-partition queue capacity (batches)")
	policy := fs.String("policy", "block", "overload policy: block, drop-oldest, drop-newest")
	fs.DurationVar(&opt.statsEvery, "stats", 10*time.Second, "self-metrics print interval")
	fs.IntVar(&cfg.Analyzer.Workers, "workers", runtime.GOMAXPROCS(0), "analyzer shard workers per window (1 = serial)")
	anWindow := fs.Duration("analyzer-window", 20*time.Second, "analyzer attribution window")
	fs.StringVar(&cfg.Analyzer.Localizer, "localizer", "", "switch localizer: alg1 (Algorithm 1 whole-vote, default) or 007 (democratic per-flow voting)")
	fs.StringVar(&cfg.Console.Addr, "serve", "", "ops-console HTTP listen address (e.g. :8080); empty disables")
	tenants := fs.String("tenants", "", "probe tenants as name:weight[:maxpps],... (e.g. gold:4,silver:2,bronze:1); empty disables tenant scheduling")
	fs.Float64Var(&cfg.Controller.TenantCapacityPPS, "tenant-pps", 0, "total probe capacity (packets/s) shared by -tenants via deficit round robin; 0 = uncontended")
	fs.StringVar(&opt.cpuProfile, "cpuprofile", "", "write a CPU profile to this file (stopped on shutdown)")
	fs.StringVar(&opt.memProfile, "memprofile", "", "write a heap profile to this file on shutdown")
	if err := fs.Parse(args); err != nil {
		return cfg, opt, err
	}
	cfg.Analyzer.Window = sim.Time(*anWindow)
	// time.NewTicker panics on a non-positive interval.
	if *anWindow <= 0 {
		return cfg, opt, errors.New("-analyzer-window: must be positive")
	}
	if opt.statsEvery <= 0 {
		return cfg, opt, errors.New("-stats: must be positive")
	}

	if err := analyzer.CheckLocalizer(cfg.Analyzer.Localizer); err != nil {
		return cfg, opt, fmt.Errorf("-localizer: %w", err)
	}
	var err error
	if cfg.Pipeline.Policy, err = pipeline.ParsePolicy(*policy); err != nil {
		return cfg, opt, fmt.Errorf("-policy: %w", err)
	}
	cfg.Topology, err = topo.BuildClos(topo.ClosConfig{
		Pods: *pods, ToRsPerPod: *tors, AggsPerPod: *aggs, Spines: *spines,
		HostsPerToR: *hosts, RNICsPerHost: *rnics,
	})
	if err != nil {
		return cfg, opt, fmt.Errorf("topology: %w", err)
	}
	if cfg.Controller.Tenants, err = controller.ParseTenants(*tenants); err != nil {
		return cfg, opt, fmt.Errorf("-tenants: %w", err)
	}
	return cfg, opt, nil
}

// run is the daemon: it parses args, serves until stop delivers, then
// shuts down and returns. Everything it prints goes to stdout.
func run(args []string, stdout io.Writer, stop <-chan os.Signal) error {
	cfg, opt, err := parseFlags(args)
	if err != nil {
		return err
	}

	if opt.cpuProfile != "" {
		f, err := os.Create(opt.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		// LIFO: stop (which flushes) must run before the file closes.
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if opt.memProfile != "" {
		defer func() {
			f, err := os.Create(opt.memProfile)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
		}()
	}

	ln, err := net.Listen("tcp", opt.listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	wall := func() sim.Time { return sim.Time(time.Now().UnixNano()) }
	d, err := api.NewDaemon(cfg, ln, wall, stdout)
	if err != nil {
		return err
	}
	if d.Console != nil {
		fmt.Fprintf(stdout, "ops console serving http://%s\n", d.Console.Addr())
		// Machine-parseable form: tooling (make serve-smoke) binds :0 and
		// reads the actual address from here instead of guessing ports.
		fmt.Fprintf(stdout, "http-addr=%s\n", d.Console.Addr())
	}
	tp, anWindow := cfg.Topology, cfg.Analyzer.Window.Duration()
	fmt.Fprintf(stdout, "rpmesh-controller serving %s (%d RNICs across %d hosts; ingest: %d partitions × cap %d, policy %s; analyzer: %d workers, %s windows)\n",
		ln.Addr(), len(tp.RNICs), len(tp.Hosts), cfg.Pipeline.Partitions, cfg.Pipeline.Capacity,
		cfg.Pipeline.Policy, cfg.Analyzer.Workers, anWindow)
	fmt.Fprintf(stdout, "wire-addr=%s\n", ln.Addr())

	tick := time.NewTicker(opt.statsEvery)
	defer tick.Stop()
	anTick := time.NewTicker(anWindow)
	defer anTick.Stop()
	for {
		select {
		case <-anTick.C:
			rep := d.Tick()
			fmt.Fprintf(stdout, "analyzer: window=%d probes=%d drops[rnic=%.4f switch=%.4f] problems=%d suspicious_switches=%d\n",
				rep.Index, rep.Cluster.Probes, rep.Cluster.RNICDropRate,
				rep.Cluster.SwitchDropRate, len(rep.Problems), len(rep.SuspiciousSwitches))
			for _, p := range rep.Problems {
				fmt.Fprintf(stdout, "  problem: %v %v dev=%s host=%s link=%d evidence=%d\n",
					p.Kind, p.Priority, p.Device, p.Host, p.Link, p.Evidence)
			}
		case <-tick.C:
			d.CatchUp()
			st := d.Pipeline.Stats()
			fmt.Fprintf(stdout, "registered=%d\n", d.Controller.Registered())
			if d.Controller.Tenants() {
				for _, g := range d.Controller.TenantGrants() {
					fmt.Fprintf(stdout, "  tenant %s: weight=%d hosts=%d demand=%.1fpps granted=%.1fpps share=%.2f\n",
						g.Name, g.Weight, g.Hosts, g.DemandPPS, g.GrantedPPS, g.Share)
				}
			}
			fmt.Fprintf(stdout, "  pipeline: %s\n", st)
			for i, ps := range st.Partitions {
				if ps.Enqueued == 0 && ps.Depth == 0 {
					continue
				}
				fmt.Fprintf(stdout, "  part[%d]: depth=%d max_depth=%d in=%d out=%d dropped=%d\n",
					i, ps.Depth, ps.MaxDepth, ps.Enqueued, ps.Dequeued,
					ps.DroppedOldest+ps.DroppedNewest)
			}
		case <-stop:
			fmt.Fprintln(stdout, "shutting down")
			if err := d.Close(); err != nil {
				fmt.Fprintln(stdout, err)
			}
			fmt.Fprintf(stdout, "final pipeline: %s\n", d.Pipeline.Stats())
			return nil
		}
	}
}
