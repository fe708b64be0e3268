// Command rpmesh-controller runs a standalone R-Pingmesh Controller plus
// the telemetry ingest tier (pipeline + time-series store — the
// Kafka/Flink/DB slice of the paper's Figure 3) over TCP. Agents connect
// with internal/wire.Client, register their RNIC communication info, pull
// pinglists, and push probe-result batches; batches flow through a
// sharded bounded pipeline as flat record batches into the Analyzer and
// the bounded tsdb's sketch tier (per-host ingest.rtt.<host> quantiles).
//
// Behind the ingest tier runs the full Analyzer on its attribution
// pipeline: every -analyzer-window it classifies the window's probes,
// detects anomalous RNICs, votes on switch links, and aggregates SLAs,
// sharding the data-parallel stages across -workers goroutines (the
// multicore win the deterministic simulations deliberately forgo).
//
// With -serve, the daemon additionally exposes the ops-console HTTP API
// (internal/api): incidents folded by the alert engine from every
// analyzer window, window reports by sequence number, tsdb range and
// quantile queries, and pipeline self-metrics.
//
// Usage:
//
//	rpmesh-controller [-listen 127.0.0.1:7201] [-partitions 4 -capacity 256 -policy block]
//	                  [-pods 2 -tors 2 -aggs 2 -spines 4 -hosts 2 -rnics 2]
//	                  [-workers N -analyzer-window 20s] [-serve :8080]
//	                  [-tenants gold:4,silver:2,bronze:1 -tenant-pps 500]
package main

import (
	"context"
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

	"rpingmesh/internal/alert"
	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/api"
	"rpingmesh/internal/controller"
	"rpingmesh/internal/pipeline"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/tsdb"
	"rpingmesh/internal/wire"
)

// analyzerTier adapts wall-clock TCP ingest to the Analyzer: each batch
// reaches it under a header copy stamped with the receive time, so
// host-down classification runs on the daemon's clock axis even when
// agent clocks skew. The columns are borrowed and the delivered batch is
// never written, so the pipeline's other sinks see what the agent sent.
type analyzerTier struct{ an *analyzer.Analyzer }

func (t analyzerTier) UploadRecords(b *proto.RecordBatch) {
	h := *b
	h.Sent = sim.Time(time.Now().UnixNano())
	t.an.UploadRecords(&h)
}

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, sig); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the daemon: it parses args, serves until stop delivers, then
// shuts down and returns. Everything it prints goes to stdout.
func run(args []string, stdout io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("rpmesh-controller", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7201", "TCP listen address")
	pods := fs.Int("pods", 2, "CLOS pods")
	tors := fs.Int("tors", 2, "ToRs per pod")
	aggs := fs.Int("aggs", 2, "Aggs per pod")
	spines := fs.Int("spines", 4, "spines")
	hosts := fs.Int("hosts", 2, "hosts per ToR")
	rnics := fs.Int("rnics", 2, "RNICs per host")
	partitions := fs.Int("partitions", 4, "ingest pipeline partitions")
	capacity := fs.Int("capacity", 256, "per-partition queue capacity (batches)")
	policy := fs.String("policy", "block", "overload policy: block, drop-oldest, drop-newest")
	statsEvery := fs.Duration("stats", 10*time.Second, "self-metrics print interval")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "analyzer shard workers per window (1 = serial)")
	anWindow := fs.Duration("analyzer-window", 20*time.Second, "analyzer attribution window")
	localizer := fs.String("localizer", "", "switch localizer: alg1 (Algorithm 1 whole-vote, default) or 007 (democratic per-flow voting)")
	serve := fs.String("serve", "", "ops-console HTTP listen address (e.g. :8080); empty disables")
	tenants := fs.String("tenants", "", "probe tenants as name:weight[:maxpps],... (e.g. gold:4,silver:2,bronze:1); empty disables tenant scheduling")
	tenantPPS := fs.Float64("tenant-pps", 0, "total probe capacity (packets/s) shared by -tenants via deficit round robin; 0 = uncontended")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file (stopped on shutdown)")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if err := analyzer.CheckLocalizer(*localizer); err != nil {
		return fmt.Errorf("-localizer: %w", err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
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
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
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

	pol, err := pipeline.ParsePolicy(*policy)
	if err != nil {
		return fmt.Errorf("-policy: %w", err)
	}
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: *pods, ToRsPerPod: *tors, AggsPerPod: *aggs, Spines: *spines,
		HostsPerToR: *hosts, RNICsPerHost: *rnics,
	})
	if err != nil {
		return fmt.Errorf("topology: %w", err)
	}
	tenantCfgs, err := controller.ParseTenants(*tenants)
	if err != nil {
		return fmt.Errorf("-tenants: %w", err)
	}
	ctrl := controller.New(sim.New(time.Now().UnixNano()), tp, controller.Config{
		Tenants: tenantCfgs, TenantCapacityPPS: *tenantPPS,
	})

	// The full Analyzer rides its own engine, advanced to the wall clock
	// before each window so Tick sees real time. TCP receivers feed it
	// concurrently; the sharded stages use the worker pool.
	aeng := sim.New(0)
	aeng.RunUntil(sim.Time(time.Now().UnixNano()))
	an := analyzer.New(aeng, tp, ctrl, analyzer.Config{
		Window:    sim.Time(*anWindow),
		Workers:   *workers,
		Localizer: *localizer,
	})

	// The ingest tier: wire.Server → pipeline (concurrent mode, one
	// consumer per partition) → {Analyzer, tsdb sketch tier}, every sink
	// on the record path. The primary journals its mutations so the
	// console's read follower can catch up by delta; every API
	// range/quantile read is served from the replica, never contending
	// with the ingest path's write lock.
	db := tsdb.Open(tsdb.Config{JournalCapacity: 1 << 16})
	an.SetMetricSink(db)
	follower := tsdb.NewFollower(db)
	pipe := pipeline.New(pipeline.Config{
		Partitions: *partitions, Capacity: *capacity, Policy: pol,
	})
	pipe.SubscribeRecords(analyzerTier{an})
	// The store's sketch tier consumes delivered record batches directly
	// (per-host ingest.rtt.* quantile ladders + per-device tallies).
	pipe.SubscribeRecords(db)

	// The console/alarm tier: every window report folds into the incident
	// engine; with -serve the HTTP API fronts the whole deployment. The
	// daemon has no watchdog (counters live in the simulated fabric), so
	// /api/diagnose stays unwired and answers 501.
	alerts := alert.NewEngine(alert.Config{})
	alerts.AddNotifier(alert.LogNotifier{Logger: log.New(stdout, "alert: ", 0)})

	// Both listeners are bound before the pipeline starts, so a failure
	// to bind leaves nothing running.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	var console *api.Server
	if *serve != "" {
		backend := api.Backend{
			Windows: an, TSDB: follower, Pipeline: pipe, Alerts: alerts,
			// Sheddable endpoints answer 429 + Retry-After while the ingest
			// pipeline backs up or the read replica falls too far behind.
			Admission: &api.Admission{Pipeline: pipe, Follower: follower},
		}
		if ctrl.Tenants() {
			backend.Tenants = ctrl
		}
		console = api.New(backend, api.Config{Addr: *serve})
		// Incident transitions stream at /api/stream/incidents as they
		// happen (window reports are published from the analyzer loop).
		alerts.AddNotifier(console.AlertNotifier())
		if err := console.Start(); err != nil {
			ln.Close()
			return fmt.Errorf("ops console: %w", err)
		}
		fmt.Fprintf(stdout, "ops console serving http://%s\n", console.Addr())
		// Machine-parseable form: tooling (make serve-smoke) binds :0 and
		// reads the actual address from here instead of guessing ports.
		fmt.Fprintf(stdout, "http-addr=%s\n", console.Addr())
	}
	pipe.Start()
	srv := wire.Serve(ln, ctrl, pipe)
	fmt.Fprintf(stdout, "rpmesh-controller serving %s (%d RNICs across %d hosts; ingest: %d partitions × cap %d, policy %s; analyzer: %d workers, %s windows)\n",
		srv.Addr(), len(tp.RNICs), len(tp.Hosts), *partitions, *capacity, pol, *workers, *anWindow)
	fmt.Fprintf(stdout, "wire-addr=%s\n", srv.Addr())

	tick := time.NewTicker(*statsEvery)
	defer tick.Stop()
	anTick := time.NewTicker(*anWindow)
	defer anTick.Stop()
	for {
		select {
		case <-anTick.C:
			// One goroutine (this loop) drives Tick; uploads keep landing
			// concurrently from the pipeline consumers.
			aeng.RunUntil(sim.Time(time.Now().UnixNano()))
			rep := an.Tick()
			alerts.Observe(rep)
			follower.CatchUp()
			if console != nil {
				console.PublishWindow(rep)
			}
			fmt.Fprintf(stdout, "analyzer: window=%d probes=%d drops[rnic=%.4f switch=%.4f] problems=%d suspicious_switches=%d\n",
				rep.Index, rep.Cluster.Probes, rep.Cluster.RNICDropRate,
				rep.Cluster.SwitchDropRate, len(rep.Problems), len(rep.SuspiciousSwitches))
			for _, p := range rep.Problems {
				fmt.Fprintf(stdout, "  problem: %v %v dev=%s host=%s link=%d evidence=%d\n",
					p.Kind, p.Priority, p.Device, p.Host, p.Link, p.Evidence)
			}
		case <-tick.C:
			follower.CatchUp()
			st := pipe.Stats()
			fmt.Fprintf(stdout, "registered=%d\n", ctrl.Registered())
			if ctrl.Tenants() {
				for _, g := range ctrl.TenantGrants() {
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
			// Stop taking uploads before the pipeline stops: an upload the
			// wire server accepted after Stop's final drain would be acked
			// into a partition nothing drains any more.
			if console != nil {
				if err := console.Shutdown(context.Background()); err != nil {
					fmt.Fprintf(stdout, "ops console shutdown: %v\n", err)
				}
			}
			if err := srv.Close(); err != nil {
				fmt.Fprintf(stdout, "wire server close: %v\n", err)
			}
			pipe.Stop()
			fmt.Fprintf(stdout, "final pipeline: %s\n", pipe.Stats())
			return nil
		}
	}
}
