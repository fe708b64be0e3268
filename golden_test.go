// Golden equivalence tests for the Analyzer: three seeded scenarios
// (the Fig 6 fault storm, the Fig 5 DML/SLA mix, and a Table 2 cause
// sequence) are run end to end and the full WindowReport sequence is
// digested canonically. The digests recorded in testdata/ were captured
// from the pre-refactor monolithic cascade; the staged pipeline must
// reproduce them bit-for-bit, in serial and in parallel (sharded) mode.
package rpingmesh_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/core"
	"rpingmesh/internal/faultgen"
	"rpingmesh/internal/qos"
	"rpingmesh/internal/service"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/simnet"
	"rpingmesh/internal/topo"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/analyzer_golden.json from the current analyzer output")

// goldenNetCfg is the simnet config the golden scenarios run under. The
// zero value is the recorded baseline; TestGoldenEquivalenceQoSDisabled
// swaps in an explicit single-class QoS config to prove it changes
// nothing.
var goldenNetCfg simnet.Config

const goldenPath = "testdata/analyzer_golden.json"

// goldenScenario builds a cluster, drives a deterministic fault/workload
// mix, and returns the full retained report sequence.
type goldenScenario struct {
	name string
	run  func(t testing.TB, cfg analyzer.Config) []analyzer.WindowReport
}

func goldenCluster(t testing.TB, seed int64, acfg analyzer.Config) *core.Cluster {
	t.Helper()
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4,
		HostsPerToR: 2, RNICsPerHost: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCluster(core.Config{Topology: tp, Seed: seed, Analyzer: acfg, Net: goldenNetCfg})
	if err != nil {
		t.Fatal(err)
	}
	c.StartAgents()
	return c
}

// scenarioFig6Mix is a compressed slice of the Fig 6 month: a Poisson
// storm of six root causes plus CPU-starvation noise events.
func scenarioFig6Mix(t testing.TB, acfg analyzer.Config) []analyzer.WindowReport {
	c := goldenCluster(t, 606, acfg)
	in := faultgen.NewInjector(c, 61)
	c.Run(30 * sim.Second)

	horizon := 20 * sim.Minute
	sched := in.GenerateSchedule(faultgen.ScheduleConfig{
		Duration: horizon,
		EventsPerHour: map[faultgen.Cause]float64{
			faultgen.FlappingPort:       8,
			faultgen.PacketCorruption:   8,
			faultgen.RNICDown:           5,
			faultgen.PFCDeadlock:        4,
			faultgen.MissingRouteConfig: 3,
			faultgen.HostDown:           2,
		},
		MeanFaultDuration: 70 * sim.Second,
	})
	in.Play(sched)

	noiseRNG := c.Eng.SubRand("golden-noise")
	hosts := c.Topo.AllHosts()
	for tt := 2 * sim.Minute; tt < horizon; tt += sim.Time(float64(5*sim.Minute) * (0.5 + noiseRNG.Float64())) {
		h := hosts[noiseRNG.Intn(len(hosts))]
		tt := tt
		c.Eng.At(tt, func() { c.Agent(h).SetStarved(true) })
		c.Eng.At(tt+45*sim.Second, func() { c.Agent(h).SetStarved(false) })
	}

	c.Run(horizon + sim.Minute)
	return c.Analyzer.Reports()
}

// scenarioFig5Mix is the SLA-monitoring mix: an All2All job over six
// hosts with checkpoint phases, two in-service drop events, and one
// persistently dropping RNIC outside the service network.
func scenarioFig5Mix(t testing.TB, acfg analyzer.Config) []analyzer.WindowReport {
	c := goldenCluster(t, 505, acfg)
	hosts := c.Topo.AllHosts()
	serviceHosts := hosts[:6]
	outsideRNIC := c.Topo.Hosts[hosts[7]].RNICs[0]

	job, err := c.NewJob(service.Config{
		Pattern:            service.All2All,
		ComputeTime:        sim.Second,
		DemandGbps:         200,
		VolumePerFlowGB:    4,
		CheckpointEvery:    25,
		CheckpointDuration: 30 * sim.Second,
		StallFailAfter:     sim.Hour,
		Seed:               505,
	}, serviceHosts...)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(20 * sim.Second)
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}

	var svcLink topo.LinkID = -1
	for _, path := range job.FlowPaths() {
		for _, l := range path {
			if _, ok := c.Topo.Switches[c.Topo.Links[l].From]; !ok {
				continue
			}
			if _, ok := c.Topo.Switches[c.Topo.Links[l].To]; ok {
				svcLink = l
			}
		}
	}
	in := faultgen.NewInjector(c, 51)
	c.Eng.After(3*sim.Minute, func() {
		af, _ := in.Inject(faultgen.Fault{Cause: faultgen.PacketCorruption, Link: svcLink, Severity: 0.08})
		c.Eng.After(sim.Minute, func() { in.Clear(af) })
	})
	c.Eng.After(7*sim.Minute, func() {
		_, _ = in.Inject(faultgen.Fault{Cause: faultgen.PacketCorruption, Dev: outsideRNIC, Severity: 0.5})
	})

	c.Run(10 * sim.Minute)
	return c.Analyzer.Reports()
}

// scenarioTable2Mix injects a sequence of distinct Table 2 causes, each
// cleared before the next lands.
func scenarioTable2Mix(t testing.TB, acfg analyzer.Config) []analyzer.WindowReport {
	c := goldenCluster(t, 202, acfg)
	in := faultgen.NewInjector(c, 21)
	c.Run(30 * sim.Second)

	seq := []faultgen.Fault{
		{Cause: faultgen.RNICDown, Dev: in.RandomRNIC()},
		{Cause: faultgen.HostDown, Host: in.RandomHost()},
		{Cause: faultgen.PacketCorruption, Link: in.RandomFabricLink(), Severity: 0.2},
		{Cause: faultgen.PFCDeadlock, Link: in.RandomFabricLink()},
		{Cause: faultgen.ACLError, Dev: in.RandomRNIC()},
		{Cause: faultgen.CPUOverload, Host: in.RandomHost()},
	}
	at := sim.Time(0)
	for _, f := range seq {
		f := f
		at += 2 * sim.Minute
		c.Eng.At(at, func() {
			af, err := in.Inject(f)
			if err != nil {
				return
			}
			c.Eng.After(90*sim.Second, func() { in.Clear(af) })
		})
	}
	c.Run(14 * sim.Minute)
	return c.Analyzer.Reports()
}

var goldenScenarios = []goldenScenario{
	{"fig6mix", scenarioFig6Mix},
	{"fig5mix", scenarioFig5Mix},
	{"table2mix", scenarioTable2Mix},
}

// digestReports canonically encodes every field of every report and
// hashes the stream. Map-typed fields are encoded in sorted key order so
// the digest depends only on report content.
func digestReports(reports []analyzer.WindowReport) string {
	h := sha256.New()
	for i := range reports {
		encodeReport(h, &reports[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func encodeReport(w io.Writer, r *analyzer.WindowReport) {
	fmt.Fprintf(w, "window %d %d %d\n", r.Index, r.Start, r.End)
	encodeSLA(w, "cluster", &r.Cluster)
	encodeSLA(w, "service", &r.Service)
	tors := make([]topo.DeviceID, 0, len(r.PerToR))
	for tor := range r.PerToR {
		tors = append(tors, tor)
	}
	sort.Slice(tors, func(i, j int) bool { return tors[i] < tors[j] })
	for _, tor := range tors {
		s := r.PerToR[tor]
		encodeSLA(w, "tor:"+string(tor), &s)
	}
	for _, sv := range r.SuspiciousSwitches {
		fmt.Fprintf(w, "suspicious %s %d\n", sv.Switch, sv.Votes)
	}
	fmt.Fprintf(w, "noise %d %d %d\n", r.HostDownTimeouts, r.QPNResetTimeouts, r.CPUNoiseTimeouts)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "problem %v %v dev=%s host=%s link=%d links=%v svc=%v ev=%d win=%d\n",
			p.Kind, p.Priority, p.Device, p.Host, p.Link, p.Links, p.FromServiceTracing, p.Evidence, p.Window)
	}
	fmt.Fprintf(w, "perf %v %v %v\n", r.ServicePerf, r.PerfDegraded, r.NetworkInnocent)
}

func encodeSLA(w io.Writer, label string, s *analyzer.SLA) {
	fmt.Fprintf(w, "sla %s %d %d %d %d %v %v\n", label,
		s.Probes, s.RNICDrops, s.SwitchDrops, s.NoiseDrops, s.RNICDropRate, s.SwitchDropRate)
	for _, sum := range []struct {
		n string
		s any
	}{{"rtt", s.RTT}, {"respd", s.ResponderDelay}, {"probd", s.ProberDelay}} {
		fmt.Fprintf(w, "  %s %+v\n", sum.n, sum.s)
	}
}

func loadGolden(t testing.TB) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden digests missing (run with -update-golden): %v", err)
	}
	out := map[string]string{}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("corrupt %s: %v", goldenPath, err)
	}
	return out
}

// golden007 runs each scenario under 007's democratic voting, sharded,
// so the goldens pin both localizers and tell them apart.
var golden007 = analyzer.Config{Localizer: analyzer.Localizer007, Workers: 4}

// TestGoldenEquivalence proves the staged pipeline reproduces the
// pre-refactor cascade exactly: the serial digest of each scenario must
// match the recorded golden value, and so must the sharded run and the
// run under the 007 localizer (recorded under "<scenario>/007").
func TestGoldenEquivalence(t *testing.T) {
	if *updateGolden {
		digests := map[string]string{}
		for _, sc := range goldenScenarios {
			digests[sc.name] = digestReports(sc.run(t, analyzer.Config{}))
			digests[sc.name+"/007"] = digestReports(sc.run(t, golden007))
			t.Logf("%s: %s  007: %s", sc.name, digests[sc.name], digests[sc.name+"/007"])
		}
		data, _ := json.MarshalIndent(digests, "", "  ")
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden := loadGolden(t)
	for _, sc := range goldenScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			got := digestReports(sc.run(t, analyzer.Config{}))
			if got != golden[sc.name] {
				t.Fatalf("serial report sequence diverged from pre-refactor golden\n got %s\nwant %s", got, golden[sc.name])
			}
		})
		t.Run(sc.name+"/parallel", func(t *testing.T) {
			got := digestReports(sc.run(t, analyzer.Config{Workers: 4}))
			if got != golden[sc.name] {
				t.Fatalf("parallel (Workers=4) report sequence diverged from serial golden\n got %s\nwant %s", got, golden[sc.name])
			}
		})
		t.Run(sc.name+"/007", func(t *testing.T) {
			got := digestReports(sc.run(t, golden007))
			if got != golden[sc.name+"/007"] {
				t.Fatalf("007 localizer report sequence diverged from golden\n got %s\nwant %s", got, golden[sc.name+"/007"])
			}
		})
	}
}

// TestGoldenEquivalenceQoSDisabled proves the QoS threading is inert
// when disabled: running every golden scenario with an explicit
// single-class QoS config (Classes: 1 — the largest "off" configuration)
// must reproduce the recorded digests bit for bit. QoS setup draws no
// randomness and the single-class path never leaves the legacy tick, so
// any divergence here means the QoS subsystem leaked into baseline
// physics.
func TestGoldenEquivalenceQoSDisabled(t *testing.T) {
	golden := loadGolden(t)
	old := goldenNetCfg
	goldenNetCfg = simnet.Config{QoS: qos.Profile(1)}
	defer func() { goldenNetCfg = old }()
	for _, sc := range goldenScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			got := digestReports(sc.run(t, analyzer.Config{}))
			if got != golden[sc.name] {
				t.Fatalf("QoS-disabled run diverged from recorded golden\n got %s\nwant %s", got, golden[sc.name])
			}
		})
	}
}
