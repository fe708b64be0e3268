package experiments

import (
	"fmt"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/core"
	"rpingmesh/internal/faultgen"
	"rpingmesh/internal/sim"
)

func init() {
	register("bakeoff-localizer", "Bake-off: Algorithm 1 vs 007 democratic voting — top-1 culprit hit rate", runBakeoffLocalizer)
}

// bakeoffFamilies are the link-targeted fault families both localizers
// are scored against. Each injects on a seeded fabric link; the trial is
// a top-1 hit when some deduplicated switch-link incident's top-ranked
// link shares the faulted cable.
var bakeoffFamilies = []struct {
	name     string
	cause    faultgen.Cause
	severity float64
	onDevice bool // RNIC-targeted: scored via the footnote-4 concentration path
}{
	{"packet-corruption", faultgen.PacketCorruption, 0.2, false},
	{"flapping-port", faultgen.FlappingPort, 0, false},
	{"pfc-deadlock", faultgen.PFCDeadlock, 0, false},
	{"missing-route", faultgen.MissingRouteConfig, 0, true},
}

const bakeoffTrials = 3

func runBakeoffLocalizer(seed int64) *Report {
	rep := newReport("bakeoff-localizer", "Switch localizer bake-off over link fault families")

	type score struct{ hits, trials int }
	results := map[string]map[string]*score{} // localizer -> family -> score
	for _, loc := range []string{analyzer.LocalizerAlg1, analyzer.Localizer007} {
		results[loc] = map[string]*score{}
		for _, fam := range bakeoffFamilies {
			s := &score{}
			results[loc][fam.name] = s
			for trial := 0; trial < bakeoffTrials; trial++ {
				if bakeoffTrial(seed+int64(trial), loc, fam.cause, fam.severity, fam.onDevice) {
					s.hits++
				}
				s.trials++
			}
		}
	}

	rep.addf("%-18s %12s %12s", "fault family", "alg1 top-1", "007 top-1")
	for _, fam := range bakeoffFamilies {
		a := results[analyzer.LocalizerAlg1][fam.name]
		d := results[analyzer.Localizer007][fam.name]
		rep.addf("%-18s %8d/%d %11d/%d", fam.name, a.hits, a.trials, d.hits, d.trials)
		rep.metric("alg1_"+fam.name+"_hit_pct", pct(a.hits, a.trials))
		rep.metric("007_"+fam.name+"_hit_pct", pct(d.hits, d.trials))
	}
	aH, aT, dH, dT := 0, 0, 0, 0
	for _, fam := range bakeoffFamilies {
		aH += results[analyzer.LocalizerAlg1][fam.name].hits
		aT += results[analyzer.LocalizerAlg1][fam.name].trials
		dH += results[analyzer.Localizer007][fam.name].hits
		dT += results[analyzer.Localizer007][fam.name].trials
	}
	rep.addf("overall: alg1 %d/%d (%.0f%%)   007 %d/%d (%.0f%%)",
		aH, aT, pct(aH, aT), dH, dT, pct(dH, dT))
	rep.metric("alg1_hit_pct", pct(aH, aT))
	rep.metric("007_hit_pct", pct(dH, dT))
	return rep
}

// bakeoffTrial runs one fault on a fresh cluster under the given
// localizer and reports whether the top-ranked culprit hit the ground
// truth: the faulted cable for link faults, the anomalous RNIC (via the
// footnote-4 host-cable concentration) for device faults.
func bakeoffTrial(seed int64, loc string, cause faultgen.Cause, severity float64, onDevice bool) bool {
	tp := stdTopo()
	c, err := core.NewCluster(core.Config{Topology: tp, Seed: seed, Localizer: loc})
	if err != nil {
		panic(err)
	}
	c.StartAgents()
	in := faultgen.NewInjector(c, seed*7+int64(cause))
	c.Run(time30s)

	f := faultgen.Fault{Cause: cause, Severity: severity}
	if onDevice {
		f.Dev = in.RandomRNIC()
	} else {
		f.Link = in.RandomFabricLink()
	}
	af, err := in.Inject(f)
	if err != nil {
		panic(fmt.Sprintf("bakeoff: inject %v: %v", cause, err))
	}
	c.Eng.After(90*sim.Second, func() { in.Clear(af) })
	c.Run(4 * sim.Minute)

	if onDevice {
		for _, p := range dedupeIncidents(c, c.Analyzer.Problems()) {
			if p.Kind == analyzer.ProblemRNIC && p.Device == f.Dev {
				return true
			}
		}
		return false
	}
	trueCable := c.Topo.Links[f.Link].Cable
	for _, p := range dedupeIncidents(c, c.Analyzer.Problems()) {
		if p.Kind == analyzer.ProblemSwitchLink && c.Topo.Links[p.Link].Cable == trueCable {
			return true
		}
	}
	return false
}
