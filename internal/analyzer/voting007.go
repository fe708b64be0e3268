package analyzer

import (
	"fmt"

	"rpingmesh/internal/localizer"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/topo"
)

// Localizer names accepted by Config.Localizer.
const (
	// LocalizerAlg1 is the paper's Algorithm 1 (whole-vote tomography).
	LocalizerAlg1 = "alg1"
	// Localizer007 is 007's democratic per-flow voting.
	Localizer007 = "007"
)

// CheckLocalizer reports whether name selects a switch localizer: "" (the
// default, Algorithm 1), LocalizerAlg1 or Localizer007.
func CheckLocalizer(name string) error {
	switch name {
	case "", LocalizerAlg1, Localizer007:
		return nil
	}
	return fmt.Errorf("unknown localizer %q (want %s or %s)", name, LocalizerAlg1, Localizer007)
}

// StageSwitchVote007 replaces switchVote when Config.Localizer is "007".
const StageSwitchVote007 = "switchVote007"

// stage007Vote mirrors stageSwitchVote — same cluster/service split, the
// same MinSwitchEvidence gate, the same footnote-4 RNIC concentration
// and footnote-5 switch-level fallback — but localizes with 007's
// democratic voting: each anomalous path splits one vote over its links
// instead of granting a whole vote per link. The emitted problems have
// identical shapes, so incident folding, suppression, SLAs and the
// consoles cannot tell which localizer ran.
func (a *Analyzer) stage007Vote(st *WindowState) {
	rep := st.Report
	var clusterPaths, servicePaths [][]topo.LinkID
	clusterN, serviceN := 0, 0
	for i, n := 0, st.Recs.Len(); i < n; i++ {
		if st.Causes[i] != CauseSwitch {
			continue
		}
		rt := st.Recs.RouteAt(i)
		path := append(append([]topo.LinkID{}, rt.ProbePath...), rt.AckPath...)
		if len(path) == 0 {
			continue
		}
		if rt.Kind == proto.ServiceTracing {
			servicePaths = append(servicePaths, path)
			serviceN++
		} else {
			clusterPaths = append(clusterPaths, path)
			clusterN++
		}
	}
	emit := func(paths [][]topo.LinkID, n int, fromService bool) {
		if n < a.cfg.MinSwitchEvidence {
			return
		}
		scores := localizer.Top(localizer.Vote007(paths, a.workers()))
		if len(scores) == 0 {
			return
		}
		links := make([]topo.LinkID, len(scores))
		for i, ls := range scores {
			links[i] = ls.Link
		}
		if dev, ok := a.soleHostCableDevice(links); ok {
			rep.Problems = append(rep.Problems, Problem{
				Kind:               ProblemRNIC,
				Device:             dev,
				Host:               a.devHost(dev),
				Evidence:           scores[0].Votes(),
				FromServiceTracing: fromService,
				Window:             rep.Index,
			})
			return
		}
		rep.Problems = append(rep.Problems, Problem{
			Kind:               ProblemSwitchLink,
			Link:               links[0],
			Links:              links,
			Evidence:           scores[0].Votes(),
			FromServiceTracing: fromService,
			Window:             rep.Index,
		})
	}
	emit(clusterPaths, clusterN, false)
	emit(servicePaths, serviceN, true)

	// Footnote 5 carries over unchanged: the switch-level vote stays the
	// paper's whole-vote count (007 only redefines the link tally).
	if clusterN+serviceN >= a.cfg.MinSwitchEvidence {
		all := append(append([][]topo.LinkID{}, clusterPaths...), servicePaths...)
		rep.SuspiciousSwitches = topSwitchVotes(countSwitchVotes(a.tp, all, a.workers()))
	}
}
