package analyzer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rpingmesh/internal/topo"
)

// LinkVote is one voting outcome.
type LinkVote struct {
	Link  topo.LinkID
	Votes int
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

func TestDetectAbnormalLinksEmpty(t *testing.T) {
	if got := detectAbnormalLinks(nil); got != nil {
		t.Fatalf("empty input = %v", got)
	}
}

func TestDetectAbnormalLinksCommonLink(t *testing.T) {
	// Three anomalous paths share link 7; every other link appears once.
	paths := [][]topo.LinkID{
		{1, 7, 2},
		{3, 7, 4},
		{5, 7, 6},
	}
	got := detectAbnormalLinks(paths)
	if len(got) != 1 || got[0].Link != 7 || got[0].Votes != 3 {
		t.Fatalf("votes = %+v", got)
	}
}

func TestDetectAbnormalLinksTies(t *testing.T) {
	paths := [][]topo.LinkID{
		{1, 2},
		{2, 1},
	}
	got := detectAbnormalLinks(paths)
	if len(got) != 2 || got[0].Link != 1 || got[1].Link != 2 {
		t.Fatalf("tied votes = %+v", got)
	}
}

// Property: the winner's vote count equals the true maximum occurrence
// count, and results are sorted by link.
func TestPropertyVotesAreMaxCounts(t *testing.T) {
	f := func(seed int64, nPaths uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		counts := map[topo.LinkID]int{}
		var paths [][]topo.LinkID
		for p := 0; p < int(nPaths%20)+1; p++ {
			var path []topo.LinkID
			for l := 0; l < rng.Intn(6)+1; l++ {
				id := topo.LinkID(rng.Intn(10))
				path = append(path, id)
				counts[id]++
			}
			paths = append(paths, path)
		}
		got := detectAbnormalLinks(paths)
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		want := 0
		for _, c := range counts {
			if c == max {
				want++
			}
		}
		if len(got) != want {
			return false
		}
		for i, lv := range got {
			if lv.Votes != max || counts[lv.Link] != max {
				return false
			}
			if i > 0 && got[i-1].Link >= lv.Link {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDetectAbnormalSwitches(t *testing.T) {
	tp, err := topo.BuildClos(topo.ClosConfig{Pods: 1, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2, HostsPerToR: 1, RNICsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := tp.RNICsUnderToR("tor-0-0")[0]
	b := tp.RNICsUnderToR("tor-0-1")[0]
	// Two paths via different aggs: the common switches are the ToRs.
	p0, err := tp.Route(a, b, topo.HasherFunc(func(topo.DeviceID, int) int { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := tp.Route(a, b, topo.HasherFunc(func(topo.DeviceID, int) int { return 1 }))
	if err != nil {
		t.Fatal(err)
	}
	got := detectAbnormalSwitches(tp, [][]topo.LinkID{p0, p1})
	if len(got) != 2 {
		t.Fatalf("switch votes = %+v", got)
	}
	for _, sv := range got {
		if sv.Switch != "tor-0-0" && sv.Switch != "tor-0-1" {
			t.Fatalf("unexpected suspicious switch %s", sv.Switch)
		}
		if sv.Votes != 2 {
			t.Fatalf("votes = %+v", sv)
		}
	}
	if detectAbnormalSwitches(tp, nil) != nil {
		t.Fatal("empty input should be nil")
	}
}

func TestSwitchVotesOncePerPath(t *testing.T) {
	tp, err := topo.BuildClos(topo.ClosConfig{Pods: 1, ToRsPerPod: 2, AggsPerPod: 1, Spines: 1, HostsPerToR: 1, RNICsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := tp.RNICsUnderToR("tor-0-0")[0]
	b := tp.RNICsUnderToR("tor-0-1")[0]
	path, err := tp.Route(a, b, topo.HasherFunc(func(topo.DeviceID, int) int { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	// Probe + ACK concatenated: a switch on both halves must still count
	// once per concatenated path... here a doubled path simulates that.
	doubled := append(append([]topo.LinkID{}, path...), path...)
	got := detectAbnormalSwitches(tp, [][]topo.LinkID{doubled})
	for _, sv := range got {
		if sv.Votes != 1 {
			t.Fatalf("switch %s voted %d times by one path", sv.Switch, sv.Votes)
		}
	}
}
