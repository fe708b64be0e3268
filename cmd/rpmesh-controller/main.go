// Command rpmesh-controller runs a standalone R-Pingmesh Controller plus
// the telemetry ingest tier (pipeline + time-series store — the
// Kafka/Flink/DB slice of the paper's Figure 3) over TCP. Agents connect
// with internal/wire.Client, register their RNIC communication info, pull
// pinglists, and push probe-result batches; batches flow through a
// sharded bounded pipeline into an aggregator that publishes per-interval
// RTT and ingest metrics into a bounded tsdb.
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
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"rpingmesh/internal/alert"
	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/api"
	"rpingmesh/internal/controller"
	"rpingmesh/internal/metrics"
	"rpingmesh/internal/pipeline"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/tsdb"
	"rpingmesh/internal/wire"
)

// aggregator consumes pipeline deliveries and folds them into both a
// running tally and per-interval RTT distributions, published into the
// tsdb on every stats tick — the standalone daemon's miniature Analyzer.
type aggregator struct {
	db *tsdb.DB

	mu       sync.Mutex
	batches  uint64
	results  uint64
	timeouts uint64
	rtt      *metrics.Distribution // reset every publish interval
}

func newAggregator(db *tsdb.DB) *aggregator {
	return &aggregator{db: db, rtt: metrics.NewDistribution()}
}

func (a *aggregator) Upload(b proto.UploadBatch) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.batches++
	a.results += uint64(len(b.Results))
	for _, r := range b.Results {
		if r.Timeout {
			a.timeouts++
			continue
		}
		a.rtt.Add(float64(r.NetworkRTT) / float64(sim.Microsecond))
	}
}

// publish seals the current interval into the tsdb and returns a one-line
// summary. t is the wall clock in ns (the daemon's sim.Time axis).
func (a *aggregator) publish(t sim.Time) string {
	a.mu.Lock()
	s := a.rtt.Summarize()
	batches, results, timeouts := a.batches, a.results, a.timeouts
	a.rtt = metrics.NewDistribution()
	a.mu.Unlock()

	a.db.Append("ingest.batches", t, float64(batches))
	a.db.Append("ingest.results", t, float64(results))
	a.db.Append("ingest.timeouts", t, float64(timeouts))
	if s.Count > 0 {
		a.db.Append("rtt.p50_us", t, s.P50)
		a.db.Append("rtt.p99_us", t, s.P99)
	}
	return fmt.Sprintf("batches=%d results=%d timeouts=%d rtt_us[%s]",
		batches, results, timeouts, s)
}

// analyzerTier adapts wall-clock TCP ingest to the Analyzer: each batch
// is re-stamped with its receive time so host-down classification runs
// on the daemon's clock axis even when agent clocks skew.
type analyzerTier struct{ an *analyzer.Analyzer }

func (t analyzerTier) Upload(b proto.UploadBatch) {
	b.Sent = sim.Time(time.Now().UnixNano())
	t.an.Upload(b)
}

func main() {
	listen := flag.String("listen", "127.0.0.1:7201", "TCP listen address")
	pods := flag.Int("pods", 2, "CLOS pods")
	tors := flag.Int("tors", 2, "ToRs per pod")
	aggs := flag.Int("aggs", 2, "Aggs per pod")
	spines := flag.Int("spines", 4, "spines")
	hosts := flag.Int("hosts", 2, "hosts per ToR")
	rnics := flag.Int("rnics", 2, "RNICs per host")
	partitions := flag.Int("partitions", 4, "ingest pipeline partitions")
	capacity := flag.Int("capacity", 256, "per-partition queue capacity (batches)")
	policy := flag.String("policy", "block", "overload policy: block, drop-oldest, drop-newest")
	statsEvery := flag.Duration("stats", 10*time.Second, "self-metrics print interval")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "analyzer shard workers per window (1 = serial)")
	anWindow := flag.Duration("analyzer-window", 20*time.Second, "analyzer attribution window")
	localizer := flag.String("localizer", "", "switch localizer: alg1 (Algorithm 1 whole-vote, default) or 007 (democratic per-flow voting)")
	serve := flag.String("serve", "", "ops-console HTTP listen address (e.g. :8080); empty disables")
	tenants := flag.String("tenants", "", "probe tenants as name:weight[:maxpps],... (e.g. gold:4,silver:2,bronze:1); empty disables tenant scheduling")
	tenantPPS := flag.Float64("tenant-pps", 0, "total probe capacity (packets/s) shared by -tenants via deficit round robin; 0 = uncontended")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (stopped on shutdown)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on shutdown")
	flag.Parse()

	if err := analyzer.CheckLocalizer(*localizer); err != nil {
		log.Fatalf("-localizer: %v", err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
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
		log.Fatalf("-policy: %v", err)
	}
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: *pods, ToRsPerPod: *tors, AggsPerPod: *aggs, Spines: *spines,
		HostsPerToR: *hosts, RNICsPerHost: *rnics,
	})
	if err != nil {
		log.Fatalf("topology: %v", err)
	}
	tenantCfgs, err := controller.ParseTenants(*tenants)
	if err != nil {
		log.Fatalf("-tenants: %v", err)
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
	// consumer per partition) → {aggregator, Analyzer} → tsdb. The primary
	// journals its mutations so the console's read follower can catch up
	// by delta; every API range/quantile read is served from the replica,
	// never contending with the ingest path's write lock.
	db := tsdb.Open(tsdb.Config{JournalCapacity: 1 << 16})
	an.SetMetricSink(db)
	follower := tsdb.NewFollower(db)
	agg := newAggregator(db)
	pipe := pipeline.New(pipeline.Config{
		Partitions: *partitions, Capacity: *capacity, Policy: pol,
	}, agg, analyzerTier{an})
	// The store's sketch tier consumes delivered record batches directly
	// (per-host ingest.rtt.* quantile ladders + per-device tallies).
	pipe.SubscribeRecords(db)
	pipe.Start()
	defer pipe.Stop()

	// The console/alarm tier: every window report folds into the incident
	// engine; with -serve the HTTP API fronts the whole deployment. The
	// daemon has no watchdog (counters live in the simulated fabric), so
	// /api/diagnose stays unwired and answers 501.
	alerts := alert.NewEngine(alert.Config{})
	alerts.AddNotifier(alert.LogNotifier{Logger: log.New(os.Stdout, "alert: ", 0)})

	srv, err := wire.Listen(*listen, ctrl, pipe)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer srv.Close()

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
			log.Fatalf("ops console: %v", err)
		}
		fmt.Printf("ops console serving http://%s\n", console.Addr())
		// Machine-parseable form: tooling (make serve-smoke) binds :0 and
		// reads the actual address from here instead of guessing ports.
		fmt.Printf("http-addr=%s\n", console.Addr())
	}
	fmt.Printf("rpmesh-controller serving %s (%d RNICs across %d hosts; ingest: %d partitions × cap %d, policy %s; analyzer: %d workers, %s windows)\n",
		srv.Addr(), len(tp.RNICs), len(tp.Hosts), *partitions, *capacity, pol, *workers, *anWindow)
	fmt.Printf("wire-addr=%s\n", srv.Addr())

	tick := time.NewTicker(*statsEvery)
	defer tick.Stop()
	anTick := time.NewTicker(*anWindow)
	defer anTick.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
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
			fmt.Printf("analyzer: window=%d probes=%d drops[rnic=%.4f switch=%.4f] problems=%d suspicious_switches=%d\n",
				rep.Index, rep.Cluster.Probes, rep.Cluster.RNICDropRate,
				rep.Cluster.SwitchDropRate, len(rep.Problems), len(rep.SuspiciousSwitches))
			for _, p := range rep.Problems {
				fmt.Printf("  problem: %v %v dev=%s host=%s link=%d evidence=%d\n",
					p.Kind, p.Priority, p.Device, p.Host, p.Link, p.Evidence)
			}
		case <-tick.C:
			now := sim.Time(time.Now().UnixNano())
			line := agg.publish(now)
			follower.CatchUp()
			st := pipe.Stats()
			fmt.Printf("registered=%d %s\n", ctrl.Registered(), line)
			if ctrl.Tenants() {
				for _, g := range ctrl.TenantGrants() {
					fmt.Printf("  tenant %s: weight=%d hosts=%d demand=%.1fpps granted=%.1fpps share=%.2f\n",
						g.Name, g.Weight, g.Hosts, g.DemandPPS, g.GrantedPPS, g.Share)
				}
			}
			fmt.Printf("  pipeline: %s\n", st)
			for i, ps := range st.Partitions {
				if ps.Enqueued == 0 && ps.Depth == 0 {
					continue
				}
				fmt.Printf("  part[%d]: depth=%d max_depth=%d in=%d out=%d dropped=%d\n",
					i, ps.Depth, ps.MaxDepth, ps.Enqueued, ps.Dequeued,
					ps.DroppedOldest+ps.DroppedNewest)
			}
			if p50, ok := db.Latest("rtt.p50_us"); ok {
				q99, _ := db.Quantile("rtt.p99_us", now-sim.Time(10*time.Minute), now, 0.5)
				fmt.Printf("  tsdb: rtt.p50=%.1fus (latest) rtt.p99=%.1fus (10m median) series=%d\n",
					p50.V, q99, len(db.Series()))
			}
		case <-sig:
			fmt.Println("shutting down")
			if console != nil {
				if err := console.Shutdown(context.Background()); err != nil {
					fmt.Printf("ops console shutdown: %v\n", err)
				}
			}
			pipe.Stop()
			final := pipe.Stats()
			fmt.Printf("final pipeline: %s\n", final)
			return
		}
	}
}
