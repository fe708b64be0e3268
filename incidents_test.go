// Golden incident-timeline test for the alert tier: a seeded multi-fault
// scenario drives the full cluster → analyzer → alert engine path and the
// complete notification stream (every open / escalate / resolve /
// suppress, in order) is pinned in testdata/. The same scenario run twice
// must produce the identical timeline, and the oscillating fault must
// provably collapse into a single suppressed incident.
package rpingmesh_test

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"rpingmesh/internal/alert"
	"rpingmesh/internal/core"
	"rpingmesh/internal/faultgen"
	"rpingmesh/internal/service"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

const incidentGoldenPath = "testdata/incidents_golden.json"

// incidentScenario: three concurrent storylines on one fabric.
//
//   - devA (inside the soon-to-start job's network): persistent packet
//     corruption from t=30s. Detected while no service runs → minor;
//     once the job starts its network covers devA and the incident
//     escalates; fault cleared at t=7m → hysteresis resolve.
//   - devB (outside the job): corruption toggled on/off in ~1-minute
//     cycles — opens, resolves, reopens … until flap suppression
//     collapses the oscillation.
//   - hostC: taken down at t=8m and left down → host-down incident
//     still open at the end.
func incidentScenario(t testing.TB) ([]string, *alert.Engine) {
	t.Helper()
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4,
		HostsPerToR: 2, RNICsPerHost: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCluster(core.Config{
		Topology: tp, Seed: 777,
		Alert: alert.Config{
			ResolveAfter: 2, FlapThreshold: 3, FlapWindow: 60, DeescalateAfter: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mem := &alert.MemNotifier{}
	c.Alerts.AddNotifier(mem)
	c.StartAgents()

	hosts := c.Topo.AllHosts()
	jobHosts := hosts[:4]
	devA := c.Topo.Hosts[jobHosts[0]].RNICs[0]
	devB := c.Topo.Hosts[hosts[6]].RNICs[0]
	hostC := hosts[7]

	in := faultgen.NewInjector(c, 7)

	// devA: persistent corruption, later inside the service network.
	var faultA *faultgen.ActiveFault
	c.Eng.At(30*sim.Second, func() {
		faultA, _ = in.Inject(faultgen.Fault{
			Cause: faultgen.PacketCorruption, Dev: devA, Severity: 0.5,
		})
	})
	c.Eng.At(7*sim.Minute, func() { in.Clear(faultA) })

	// devB: oscillate — 60 s on, 60 s off (3 windows each, enough for
	// the 2-clean-window hysteresis to resolve between bursts).
	for cycle := 0; cycle < 4; cycle++ {
		on := sim.Time(40*sim.Second) + sim.Time(cycle)*2*sim.Minute
		var f *faultgen.ActiveFault
		c.Eng.At(on, func() {
			f, _ = in.Inject(faultgen.Fault{
				Cause: faultgen.PacketCorruption, Dev: devB, Severity: 0.5,
			})
		})
		c.Eng.At(on+sim.Minute, func() { in.Clear(f) })
	}

	// hostC: down at 8 m, never recovered.
	c.Eng.At(8*sim.Minute, func() {
		_, _ = in.Inject(faultgen.Fault{Cause: faultgen.HostDown, Host: hostC})
	})

	// The job whose service network promotes devA's incident.
	c.Run(2 * sim.Minute)
	job, err := c.NewJob(service.Config{
		Pattern: service.All2All, ComputeTime: sim.Second,
		DemandGbps: 200, VolumePerFlowGB: 4, Seed: 777,
	}, jobHosts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	c.Run(10 * sim.Minute)

	lines := make([]string, 0, mem.Len())
	for _, e := range mem.Events() {
		lines = append(lines, fmt.Sprintf("w%03d %-10s #%d %s sev=%s opens=%d",
			e.Window, e.Type, e.Incident.ID, e.Incident.Key, e.Incident.Severity, e.Incident.Opens))
	}
	return lines, c.Alerts
}

// TestIncidentTimelineGolden pins the full notification stream and the
// structural facts the alert tier exists for.
func TestIncidentTimelineGolden(t *testing.T) {
	lines, eng := incidentScenario(t)

	if *updateGolden {
		data, _ := json.MarshalIndent(lines, "", "  ")
		if err := os.WriteFile(incidentGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d timeline events", len(lines))
		return
	}
	data, err := os.ReadFile(incidentGoldenPath)
	if err != nil {
		t.Fatalf("incident golden missing (run with -update-golden): %v", err)
	}
	var want []string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt %s: %v", incidentGoldenPath, err)
	}
	if got, wantS := strings.Join(lines, "\n"), strings.Join(want, "\n"); got != wantS {
		t.Fatalf("incident timeline diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", got, wantS)
	}

	// Flap suppression provably collapsed the oscillation: devB's four
	// bursts are ONE incident, reopened and then suppressed — never a
	// second incident for the same key.
	all := eng.Incidents(alert.Filter{IncludeArchived: true})
	var devB []alert.Incident
	for _, in := range all {
		if strings.HasPrefix(in.Key.Entity, "dev:") && in.Flaps > 0 {
			devB = append(devB, in)
		}
	}
	if len(devB) != 1 {
		t.Fatalf("oscillating fault produced %d flapping incidents, want exactly 1: %+v", len(devB), devB)
	}
	if b := devB[0]; !b.Suppressed || b.Opens < 3 {
		t.Fatalf("oscillating incident not collapsed+suppressed: opens=%d suppressed=%v", b.Opens, b.Suppressed)
	}

	// The in-service incident escalated and later resolved; the host-down
	// incident is still open at the end.
	var sawEscalate, sawResolve, sawHostOpen bool
	for _, l := range lines {
		if strings.Contains(l, "escalate") {
			sawEscalate = true
		}
		if strings.Contains(l, "resolve") {
			sawResolve = true
		}
		if strings.Contains(l, "host-down") && strings.Contains(l, "open") {
			sawHostOpen = true
		}
	}
	if !sawEscalate || !sawResolve || !sawHostOpen {
		t.Fatalf("timeline missing storylines: escalate=%v resolve=%v hostDownOpen=%v\n%s",
			sawEscalate, sawResolve, sawHostOpen, strings.Join(lines, "\n"))
	}
}

// TestIncidentTimelineDeterministic runs the scenario twice in-process:
// the alert tier inherits the simulation's bit-reproducibility.
func TestIncidentTimelineDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full scenario runs")
	}
	a, _ := incidentScenario(t)
	b, _ := incidentScenario(t)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("same seed, different incident timeline:\n--- run1 ---\n%s\n--- run2 ---\n%s",
			strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
}
