package analyzer

import (
	"cmp"
	"fmt"
	"slices"

	"rpingmesh/internal/proto"
	"rpingmesh/internal/topo"
)

// Algorithm 1 of the paper: identify the most suspicious switch links by
// voting. Derived from binary network tomography: traverse the paths of
// anomalous probes (and of their ACKs), count how many anomalous paths
// cross each link, and the links with the highest count are the most
// suspicious.
//
// 007 (Arzani et al., NSDI 2018 — PAPERS.md) is the same vote with a
// different weight: each bad flow splits one vote equally over its path,
// so a flow crossing h links adds 1/h to each. Long paths then implicate
// their links more weakly than short ones, compensating for crossing
// more links by construction. Config.Localizer picks the weight; the
// tally, the top-k and the problems emitted are shared.

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

// voteScale is the fixed-point vote unit: link scores count in
// 1/voteScale votes, and 720720 = lcm(1..16) makes 007's 1/h share exact
// for any path of at most 16 links (probe+ACK tops out at 12 in our Clos
// fabrics; longer paths truncate). Integer scores merge commutatively
// across worker shards, so every tally is bit-identical for any worker
// count.
const voteScale = 720720

// wholeVote is Algorithm 1's weight: a whole vote for every link a path
// crosses.
func wholeVote([]topo.LinkID) int64 { return voteScale }

// democraticVote is 007's weight: one vote split over the path.
func democraticVote(path []topo.LinkID) int64 { return voteScale / int64(len(path)) }

// evidence converts a link score to whole votes, rounded up so a link
// implicated by even a sliver of a vote never reports zero evidence. For
// Algorithm 1 it is exactly the number of paths crossing the link.
func evidence(score int64) int { return int((score + voteScale - 1) / voteScale) }

// LinkVote is one voting outcome.
type LinkVote struct {
	Link  topo.LinkID
	Votes int
}

// SwitchVote is one switch-level voting outcome.
type SwitchVote struct {
	Switch topo.DeviceID
	Votes  int
}

// detectAbnormalLinks runs Algorithm 1 over the paths of anomalous probes
// and returns every link sharing the highest vote count (ties are all
// suspicious), sorted by link ID for determinism.
func detectAbnormalLinks(paths [][]topo.LinkID) []LinkVote {
	links, score := top(countLinkVotes(paths, 1, wholeVote))
	var out []LinkVote
	for _, l := range links {
		out = append(out, LinkVote{Link: l, Votes: evidence(score)})
	}
	return out
}

// detectAbnormalSwitches is the footnote-5 variant: replacing "link" with
// "switch" localizes the device instead of the cable. Each path votes for
// every switch it traverses (at most once per path).
func detectAbnormalSwitches(tp *topo.Topology, paths [][]topo.LinkID) []SwitchVote {
	return switchVotes(top(countSwitchVotes(tp, paths, 1)))
}

// tally sums the votes every path casts, sharded over workers: shard w
// takes paths w, w+workers, … and the integer scores merge
// commutatively, so the tally is identical to a serial count for any
// worker count.
func tally[K comparable](paths [][]topo.LinkID, workers int, vote func(path []topo.LinkID, scores map[K]int64)) map[K]int64 {
	locals := make([]map[K]int64, workers)
	runSharded(workers, func(w int) {
		m := make(map[K]int64)
		for i := w; i < len(paths); i += workers {
			vote(paths[i], m)
		}
		locals[w] = m
	})
	merged := locals[0]
	for _, m := range locals[1:] {
		for k, v := range m {
			merged[k] += v
		}
	}
	return merged
}

// countLinkVotes tallies per-link scores in 1/voteScale units, each path
// giving weight(path) to every link it crosses.
func countLinkVotes(paths [][]topo.LinkID, workers int, weight func([]topo.LinkID) int64) map[topo.LinkID]int64 {
	return tally(paths, workers, func(path []topo.LinkID, m map[topo.LinkID]int64) {
		if len(path) == 0 {
			return
		}
		w := weight(path)
		for _, link := range path {
			m[link] += w
		}
	})
}

// countSwitchVotes tallies footnote 5's per-switch votes in whole votes:
// each path votes once for every switch it traverses.
func countSwitchVotes(tp *topo.Topology, paths [][]topo.LinkID, workers int) map[topo.DeviceID]int64 {
	return tally(paths, workers, func(path []topo.LinkID, m map[topo.DeviceID]int64) {
		seen := make(map[topo.DeviceID]bool)
		for _, link := range path {
			if int(link) < 0 || int(link) >= len(tp.Links) {
				continue
			}
			for _, end := range []topo.DeviceID{tp.Links[link].From, tp.Links[link].To} {
				if _, isSwitch := tp.Switches[end]; isSwitch && !seen[end] {
					seen[end] = true
					m[end]++
				}
			}
		}
	})
}

// top returns every key sharing the highest score (ties are all
// suspicious), sorted for determinism, and that score.
func top[K cmp.Ordered](scores map[K]int64) ([]K, int64) {
	var max int64
	for _, v := range scores {
		if v > max {
			max = v
		}
	}
	var keys []K
	for k, v := range scores {
		if v == max {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys, max
}

func switchVotes(switches []topo.DeviceID, votes int64) []SwitchVote {
	var out []SwitchVote
	for _, sw := range switches {
		out = append(out, SwitchVote{Switch: sw, Votes: int(votes)})
	}
	return out
}

// stageSwitchVote localizes the remaining anomalous probes' paths with
// the configured vote weight — Cluster Monitoring and Service Tracing
// analyzed separately (§4.3.3).
func (a *Analyzer) stageSwitchVote(st *windowState) {
	rep := st.Report
	var clusterPaths, servicePaths [][]topo.LinkID
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
		} else {
			clusterPaths = append(clusterPaths, path)
		}
	}
	emit := func(paths [][]topo.LinkID, fromService bool) {
		if len(paths) < a.cfg.MinSwitchEvidence {
			return
		}
		links, score := top(countLinkVotes(paths, a.workers(), a.linkWeight))
		if len(links) == 0 {
			return
		}
		// Footnote 4: if the suspicion concentrates on one RNIC's host
		// cable, this is an RNIC problem (RNIC / its cable / the ToR port
		// it plugs into are indistinguishable to probing).
		if dev, ok := a.soleHostCableDevice(links); ok {
			rep.Problems = append(rep.Problems, Problem{
				Kind:               ProblemRNIC,
				Device:             dev,
				Host:               a.devHost(dev),
				Evidence:           evidence(score),
				FromServiceTracing: fromService,
				Window:             rep.Index,
			})
			return
		}
		rep.Problems = append(rep.Problems, Problem{
			Kind:               ProblemSwitchLink,
			Link:               links[0],
			Links:              links,
			Evidence:           evidence(score),
			FromServiceTracing: fromService,
			Window:             rep.Index,
		})
	}
	emit(clusterPaths, false)
	emit(servicePaths, true)

	// Footnote 5: the switch-level vote over all anomalous paths stays
	// the paper's whole-vote count under either link weight.
	if len(clusterPaths)+len(servicePaths) >= a.cfg.MinSwitchEvidence {
		all := append(append([][]topo.LinkID{}, clusterPaths...), servicePaths...)
		rep.SuspiciousSwitches = switchVotes(top(countSwitchVotes(a.tp, all, a.workers())))
	}
}

// soleHostCableDevice reports the single RNIC whose host cable accounts
// for every candidate link, if any.
func (a *Analyzer) soleHostCableDevice(links []topo.LinkID) (topo.DeviceID, bool) {
	var dev topo.DeviceID
	for _, l := range links {
		if int(l) < 0 || int(l) >= len(a.tp.Links) {
			return "", false
		}
		link := a.tp.Links[l]
		var end topo.DeviceID
		if _, ok := a.tp.RNICs[link.From]; ok {
			end = link.From
		} else if _, ok := a.tp.RNICs[link.To]; ok {
			end = link.To
		} else {
			return "", false
		}
		if dev == "" {
			dev = end
		} else if dev != end {
			return "", false
		}
	}
	return dev, dev != ""
}
