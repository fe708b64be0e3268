package analyzer

import (
	"reflect"
	"testing"

	"rpingmesh/internal/proto"
	"rpingmesh/internal/topo"
)

func TestLocalizer007FindsSharedLink(t *testing.T) {
	// When every anomalous path has the same length, 007 and Algorithm 1
	// must agree on the culprit: the one link every bad path crosses.
	for _, loc := range []string{LocalizerAlg1, Localizer007} {
		h := newHarness(t, Config{Localizer: loc})
		results := h.torMeshTraffic(6, nil)
		src := h.tp.RNICsUnderToR("tor-0-1")[0]
		dst := h.tp.RNICsUnderToR("tor-1-0")[0]
		shared := h.tp.LinkBetween("tor-1-0", "agg-1-0")
		for i := 0; i < 8; i++ {
			r := h.mkResult(src, dst, proto.InterToR, true)
			r.ProbePath = []topo.LinkID{h.tp.LinkBetween("tor-0-1", "agg-0-0"), shared}
			r.AckPath = []topo.LinkID{shared}
			results = append(results, r)
		}
		h.uploadAll(results)
		rep := h.tick()
		found := false
		for _, p := range rep.Problems {
			if p.Kind == ProblemSwitchLink && p.Link == shared {
				found = true
				if p.Evidence <= 0 {
					t.Fatalf("[%s] zero evidence on culprit", loc)
				}
			}
		}
		if !found {
			t.Fatalf("[%s] culprit link not localized: %+v", loc, rep.Problems)
		}
	}
}

func TestLocalizer007DemocraticWeighting(t *testing.T) {
	// The discriminating case: link A is crossed by three SHORT bad paths
	// (1/2 vote each = 1.5), link B by four LONG bad paths (1/4 vote each
	// = 1.0). Algorithm 1 would blame B (4 whole votes vs 3); 007 blames
	// A. Filler links keep each suspicion from concentrating on one host
	// cable.
	h := newHarness(t, Config{Localizer: Localizer007})
	results := h.torMeshTraffic(6, nil)
	src := h.tp.RNICsUnderToR("tor-0-1")[0]
	dst := h.tp.RNICsUnderToR("tor-1-0")[0]
	linkA := h.tp.LinkBetween("tor-0-1", "agg-0-0")
	linkB := h.tp.LinkBetween("tor-1-0", "agg-1-0")
	// Distinct switch-to-switch filler links, so no filler accumulates
	// enough shares to tie linkA: short-path fillers are crossed once
	// (1/2 vote), long-path fillers four times at 1/4 (1.0 vote).
	var fabric []topo.LinkID
	for i, l := range h.tp.Links {
		_, fsw := h.tp.Switches[l.From]
		_, tsw := h.tp.Switches[l.To]
		lid := topo.LinkID(i)
		if fsw && tsw && lid != linkA && lid != linkB {
			fabric = append(fabric, lid)
		}
	}
	if len(fabric) < 6 {
		t.Fatalf("need 6 filler fabric links, have %d", len(fabric))
	}
	shortFill, longFill := fabric[:3], fabric[3:6]
	for i := 0; i < 3; i++ {
		r := h.mkResult(src, dst, proto.InterToR, true)
		r.ProbePath = []topo.LinkID{linkA, shortFill[i]}
		r.AckPath = []topo.LinkID{}
		results = append(results, r)
	}
	for i := 0; i < 4; i++ {
		r := h.mkResult(src, dst, proto.InterToR, true)
		r.ProbePath = []topo.LinkID{linkB, longFill[0], longFill[1], longFill[2]}
		r.AckPath = []topo.LinkID{}
		results = append(results, r)
	}
	h.uploadAll(results)
	rep := h.tick()
	var culprit *Problem
	for i := range rep.Problems {
		if rep.Problems[i].Kind == ProblemSwitchLink && !rep.Problems[i].FromServiceTracing {
			culprit = &rep.Problems[i]
		}
	}
	if culprit == nil {
		t.Fatalf("no switch-link problem: %+v", rep.Problems)
	}
	if culprit.Link != linkA {
		t.Fatalf("007 blamed %v, want the short-path link %v (problems %+v)",
			culprit.Link, linkA, rep.Problems)
	}
}

func TestDemocraticShares(t *testing.T) {
	// One 2-hop bad flow and one 4-hop bad flow sharing link 1: the
	// shared link gets 1/2 + 1/4 = 3/4 of a vote and wins over every
	// exclusively-crossed link.
	paths := [][]topo.LinkID{
		{1, 2},
		{1, 3, 4, 5},
	}
	scores := countLinkVotes(paths, 1, democraticVote)
	if got := scores[1]; got != voteScale/2+voteScale/4 {
		t.Fatalf("shared link score = %d, want %d", got, voteScale/2+voteScale/4)
	}
	if got := scores[2]; got != voteScale/2 {
		t.Fatalf("link 2 score = %d", got)
	}
	links, score := top(scores)
	if len(links) != 1 || links[0] != 1 {
		t.Fatalf("top = %v, want link 1 alone", links)
	}
	if evidence(score) != 1 {
		t.Fatalf("evidence = %d, want 1 (3/4 rounds up)", evidence(score))
	}
}

func TestLongPathsImplicateWeakly(t *testing.T) {
	// Algorithm 1 ties links 10 and 20: each is crossed by two bad
	// paths. 007 blames the short paths' link because each short flow
	// commits half a vote to it while the long flows dilute theirs.
	paths := [][]topo.LinkID{
		{10, 11}, {10, 12},
		{20, 21, 22, 23}, {20, 24, 25, 26},
	}
	if links, _ := top(countLinkVotes(paths, 1, democraticVote)); len(links) != 1 || links[0] != 10 {
		t.Fatalf("007 top = %v, want link 10 alone", links)
	}
	if links, score := top(countLinkVotes(paths, 1, wholeVote)); len(links) != 2 || evidence(score) != 2 {
		t.Fatalf("alg1 top = %v (%d votes), want links 10 and 20 at 2", links, evidence(score))
	}
}

func TestShardedTallyMatchesSerial(t *testing.T) {
	var paths [][]topo.LinkID
	for i := 0; i < 500; i++ {
		p := make([]topo.LinkID, 1+i%12)
		for j := range p {
			p[j] = topo.LinkID((i*7 + j*3) % 64)
		}
		paths = append(paths, p)
	}
	for name, weight := range map[string]func([]topo.LinkID) int64{"alg1": wholeVote, "007": democraticVote} {
		serial := countLinkVotes(paths, 1, weight)
		for _, workers := range []int{2, 4, 8} {
			if got := countLinkVotes(paths, workers, weight); !reflect.DeepEqual(serial, got) {
				t.Fatalf("%s: workers=%d tally diverged from serial", name, workers)
			}
		}
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	for _, weight := range []func([]topo.LinkID) int64{wholeVote, democraticVote} {
		if links, _ := top(countLinkVotes(nil, 4, weight)); links != nil {
			t.Fatal("no paths must yield no suspects")
		}
		if got := countLinkVotes([][]topo.LinkID{{}, {}}, 1, weight); len(got) != 0 {
			t.Fatalf("empty paths voted: %v", got)
		}
	}
}

func TestTiesSortedByLink(t *testing.T) {
	paths := [][]topo.LinkID{{5, 3}, {3, 5}}
	if links, _ := top(countLinkVotes(paths, 1, democraticVote)); len(links) != 2 || links[0] != 3 || links[1] != 5 {
		t.Fatalf("ties not sorted: %v", links)
	}
}

var topSink []topo.LinkID

func BenchmarkLocalizer007(b *testing.B) {
	// Representative anomalous-window load: a few thousand probe+ACK
	// paths (12 hops cross-pod) over a few hundred fabric links.
	var paths [][]topo.LinkID
	for i := 0; i < 4096; i++ {
		p := make([]topo.LinkID, 12)
		for j := range p {
			p[j] = topo.LinkID((i*13 + j*5) % 320)
		}
		paths = append(paths, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topSink, _ = top(countLinkVotes(paths, 1, democraticVote))
	}
}
