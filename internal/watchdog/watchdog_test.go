package watchdog

import (
	"testing"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/core"
	"rpingmesh/internal/faultgen"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

func cluster(t testing.TB, seed int64) *core.Cluster {
	t.Helper()
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2,
		HostsPerToR: 2, RNICsPerHost: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCluster(core.Config{Topology: tp, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHealthyClusterRaisesNothing(t *testing.T) {
	c := cluster(t, 1)
	c.StartAgents()
	w := New(c, Config{})
	w.Start()
	c.Run(2 * sim.Minute)
	if got := w.advisories; len(got) != 0 {
		t.Fatalf("healthy cluster raised %v", got)
	}
	w.Stop()
	w.Stop() // idempotent
}

// Probing can say "this RNIC drops probes" but not WHY (§7.5: root-cause
// diagnosis needs counters). For low-grade corruption the watchdog names
// the cause — replace the cable — no later than the probing pipeline's
// first generic report.
func TestNamesRootCauseNoLaterThanProbing(t *testing.T) {
	c := cluster(t, 2)
	c.StartAgents()
	w := New(c, Config{})
	w.Start()
	c.Run(30 * sim.Second)

	victim := c.Topo.AllRNICs()[0]
	in := faultgen.NewInjector(c, 1)
	if _, err := in.Inject(faultgen.Fault{Cause: faultgen.PacketCorruption, Dev: victim, Severity: 0.05}); err != nil {
		t.Fatal(err)
	}
	c.Run(2 * sim.Minute)

	var advisoryAt sim.Time = -1
	for _, a := range w.advisories {
		if a.Advice == ReplaceCable && a.Device == victim {
			advisoryAt = a.At
			if a.Delta <= 0 {
				t.Fatalf("advisory without evidence: %+v", a)
			}
			break
		}
	}
	if advisoryAt < 0 {
		t.Fatalf("no ReplaceCable advisory: %v", w.advisories)
	}
	var problemAt sim.Time = -1
	for _, p := range c.Analyzer.Problems() {
		if p.Device == victim {
			for _, wr := range c.Analyzer.Reports() {
				if wr.Index == p.Window {
					problemAt = wr.End
				}
			}
			break
		}
	}
	if problemAt >= 0 && advisoryAt > problemAt+30*sim.Second {
		t.Fatalf("watchdog (%v) lagged far behind probing (%v)", advisoryAt, problemAt)
	}
}

func TestFlappingHostCableAdvisesIsolation(t *testing.T) {
	c := cluster(t, 3)
	c.StartAgents()
	w := New(c, Config{})
	w.Start()
	c.Run(30 * sim.Second)
	victim := c.Topo.AllRNICs()[0]
	in := faultgen.NewInjector(c, 1)
	if _, err := in.Inject(faultgen.Fault{Cause: faultgen.FlappingPort, Dev: victim}); err != nil {
		t.Fatal(err)
	}
	c.Run(2 * sim.Minute)
	found := false
	for _, a := range w.advisories {
		if a.Advice == IsolateDevice && a.Device == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("no IsolateDevice advisory for the flapping RNIC: %v", w.advisories)
	}
}

func TestPFCAdvisory(t *testing.T) {
	c := cluster(t, 4)
	c.StartAgents()
	w := New(c, Config{})
	w.Start()
	c.Run(30 * sim.Second)
	link := c.Topo.LinkBetween("tor-0-0", "agg-0-0")
	c.Net.SetPFCBlocked(link, true)
	c.Run(2 * sim.Minute)
	found := false
	for _, a := range w.advisories {
		if a.Advice == InspectPFC {
			found = true
		}
	}
	if !found {
		t.Fatalf("no InspectPFC advisory: %v", w.advisories)
	}
}

// Per-window diagnosis is Cluster.OnWindow plus Diagnose: each closed
// window's problems are diagnosed against the counter advisories raised
// so far, pairing each WHERE (probing) with a WHY (counters).
func TestAttachedStageDiagnosesPerWindow(t *testing.T) {
	c := cluster(t, 5)
	w := New(c, Config{})
	var diagnoses []Diagnosis
	windows := 0
	c.OnWindow(func(rep analyzer.WindowReport) {
		windows++
		diagnoses = append(diagnoses, w.Diagnose(rep.Problems)...)
	})
	c.StartAgents()
	c.Run(30 * sim.Second)
	w.Start()

	victim := c.Topo.AllRNICs()[0]
	in := faultgen.NewInjector(c, 1)
	if _, err := in.Inject(faultgen.Fault{Cause: faultgen.PacketCorruption, Dev: victim, Severity: 0.5}); err != nil {
		t.Fatal(err)
	}
	c.Run(3 * sim.Minute)
	if windows == 0 {
		t.Fatal("no window closed")
	}

	// Early windows may out-run the first counter sweep and diagnose
	// CauseUnknown/down; once advisories accumulate, the per-window
	// diagnoses must name the corruption.
	found := false
	for _, d := range diagnoses {
		if d.Problem.Device == victim && d.Cause == CauseCorruption {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("per-window diagnosis never named corruption for %s: %v", victim, diagnoses)
	}
}

func TestAdvisoryStrings(t *testing.T) {
	for _, a := range []Advice{ReplaceCable, IsolateDevice, InspectPFC, Advice(9)} {
		if a.String() == "" {
			t.Fatalf("advice %d empty string", a)
		}
	}
	adv := Advisory{Advice: ReplaceCable, Device: "rnic-x", Delta: 5, At: sim.Second}
	if adv.String() == "" {
		t.Fatal("advisory String empty")
	}
	adv2 := Advisory{Advice: InspectPFC, Link: 3, Delta: 5}
	if adv2.String() == "" {
		t.Fatal("link advisory String empty")
	}
}
