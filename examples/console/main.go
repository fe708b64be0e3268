// Ops console end to end: a seeded fault scenario drives the cluster →
// alert engine → HTTP API path. The simulation injects a persistent RNIC
// fault (which escalates once a training job's service network covers
// it), an oscillating fault (which flap suppression collapses into one
// incident), and a host-down; the console server then fronts the whole
// deployment and the example queries itself over real HTTP — the same
// requests the README's curl session shows.
//
// With -hold the server stays up after the scripted session so you can
// curl it yourself; Ctrl-C exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"rpingmesh"
	"rpingmesh/internal/alert"
	"rpingmesh/internal/api"
	"rpingmesh/internal/core"
	"rpingmesh/internal/faultgen"
	"rpingmesh/internal/service"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/watchdog"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "console listen address")
	hold := flag.Bool("hold", false, "keep serving after the scripted session (Ctrl-C to exit)")
	flag.Parse()

	// Fabric + alert tier tuned so the whole lifecycle fits in a
	// 12-minute simulation: resolve after 2 clean windows, suppress the
	// third reopen inside a 60-window flap horizon.
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4,
		HostsPerToR: 2, RNICsPerHost: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := core.NewCluster(core.Config{
		Topology: tp, Seed: 777,
		Alert: alert.Config{
			ResolveAfter: 2, FlapThreshold: 3, FlapWindow: 60, DeescalateAfter: 2,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	cluster.Alerts.AddNotifier(alert.LogNotifier{
		Logger: log.New(os.Stdout, "", 0),
	})
	cluster.StartAgents()

	hosts := cluster.Topo.AllHosts()
	jobHosts := hosts[:4]
	devA := cluster.Topo.Hosts[jobHosts[0]].RNICs[0] // in the job's network
	devB := cluster.Topo.Hosts[hosts[6]].RNICs[0]    // outside it, oscillating
	hostC := hosts[7]
	in := faultgen.NewInjector(cluster, 7)

	// Persistent corruption at devA from 30 s, cleared at 7 m.
	var faultA *faultgen.ActiveFault
	cluster.Eng.At(30*sim.Second, func() {
		faultA, _ = in.Inject(faultgen.Fault{
			Cause: faultgen.PacketCorruption, Dev: devA, Severity: 0.5,
		})
	})
	cluster.Eng.At(7*sim.Minute, func() { in.Clear(faultA) })

	// devB flaps: 1 minute on, 1 minute off, four times.
	for cycle := 0; cycle < 4; cycle++ {
		on := 40*sim.Second + sim.Time(cycle)*2*sim.Minute
		var f *faultgen.ActiveFault
		cluster.Eng.At(on, func() {
			f, _ = in.Inject(faultgen.Fault{
				Cause: faultgen.PacketCorruption, Dev: devB, Severity: 0.5,
			})
		})
		cluster.Eng.At(on+sim.Minute, func() { in.Clear(f) })
	}

	// hostC goes down at 8 m and stays down.
	cluster.Eng.At(8*sim.Minute, func() {
		_, _ = in.Inject(faultgen.Fault{Cause: faultgen.HostDown, Host: hostC})
	})

	// The watchdog gathers the counter evidence /api/diagnose serves.
	wd := watchdog.New(cluster, watchdog.Config{})
	wd.Start()

	fmt.Printf("simulating 12 minutes: faults at %s (persistent, in-service), %s (flapping), %s (down)\n\n",
		devA, devB, hostC)
	cluster.Run(2 * sim.Minute)
	job, err := cluster.NewJob(service.Config{
		Pattern: service.All2All, ComputeTime: sim.Second,
		DemandGbps: 200, VolumePerFlowGB: 4, Seed: 777,
	}, jobHosts...)
	if err != nil {
		log.Fatal(err)
	}
	if err := job.Start(); err != nil {
		log.Fatal(err)
	}
	cluster.Run(10 * sim.Minute)

	// Serve the finished deployment and query it over real HTTP.
	console := rpingmesh.NewConsole(cluster, wd, api.Config{Addr: *addr})
	if err := console.Start(); err != nil {
		log.Fatal(err)
	}
	base := "http://" + console.Addr()
	fmt.Printf("\nops console serving %s\n\n", base)

	paths := []string{
		"/healthz",
		"/api/incidents",
		"/api/incidents?state=open&severity=major",
		"/api/windows/latest",
		"/api/series/cluster.rtt.p50/range?from=0",
		"/api/series/cluster.rtt.p99/quantile?q=0.5",
		"/api/pipeline/stats",
		"/api/diagnose/" + string(hostC),
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for _, p := range paths {
		var resp *http.Response
		var err error
		if strings.HasPrefix(p, "/api/diagnose") {
			resp, err = client.Post(base+p, "", nil)
		} else {
			resp, err = client.Get(base + p)
		}
		if err != nil {
			log.Fatalf("GET %s: %v", p, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		fmt.Printf("$ curl %s%s\n%s\n", base, p, trim(body, 600))
	}

	if *hold {
		fmt.Println("holding — curl away, Ctrl-C to exit")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
	}
	if err := console.Shutdown(context.Background()); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	fmt.Println("console shut down cleanly")
}

func trim(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "…\n"
	}
	return string(b)
}
