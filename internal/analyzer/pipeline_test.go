package analyzer

import (
	"fmt"
	"sync"
	"testing"

	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// mixedWindow builds one window's worth of traffic exercising every
// stage: healthy ToR-mesh background, an anomalous RNIC, inter-ToR
// timeouts with paths (switch voting), and service-tracing probes.
func mixedWindow(h *harness) []proto.ProbeResult {
	victim := h.torA[0]
	results := h.torMeshTraffic(6, map[topo.DeviceID]bool{victim: true})
	src := h.tp.RNICsUnderToR("tor-0-1")[0]
	dst := h.tp.RNICsUnderToR("tor-1-0")[0]
	shared := h.tp.LinkBetween("tor-1-0", "agg-1-0")
	for i := 0; i < 8; i++ {
		r := h.mkResult(src, dst, proto.InterToR, true)
		r.ProbePath = []topo.LinkID{h.tp.LinkBetween("tor-0-1", "agg-0-0"), shared}
		r.AckPath = []topo.LinkID{shared}
		results = append(results, r)
	}
	for i := 0; i < 10; i++ {
		r := h.mkResult(src, dst, proto.ServiceTracing, false)
		r.ProbePath = []topo.LinkID{1, 2, 3}
		results = append(results, r)
	}
	return results
}

// encodeAll canonically renders a report sequence for equality checks.
func encodeAll(reports []WindowReport) string {
	out := ""
	for _, r := range reports {
		out += fmt.Sprintf("%d %+v %+v %d %d %d %v %v %+v\n",
			r.Index, r.Cluster, r.Service,
			r.HostDownTimeouts, r.QPNResetTimeouts, r.CPUNoiseTimeouts,
			r.SuspiciousSwitches, r.Problems, r.ServicePerf)
		tors := make([]topo.DeviceID, 0, len(r.PerToR))
		for tor := range r.PerToR {
			tors = append(tors, tor)
		}
		for i := range tors {
			for j := i + 1; j < len(tors); j++ {
				if tors[j] < tors[i] {
					tors[i], tors[j] = tors[j], tors[i]
				}
			}
		}
		for _, tor := range tors {
			out += fmt.Sprintf("  %s %+v\n", tor, r.PerToR[tor])
		}
	}
	return out
}

// TestParallelWindowMatchesSerial is the unit-scale equivalence check
// (the root golden test covers whole simulations): identical uploads
// through Workers=1 and Workers=8 must produce identical reports,
// including reservoir-sampled distribution summaries.
func TestParallelWindowMatchesSerial(t *testing.T) {
	run := func(workers int) []WindowReport {
		h := newHarness(t, Config{Workers: workers})
		for w := 0; w < 3; w++ {
			h.uploadAll(mixedWindow(h))
			h.tick()
		}
		return h.an.Reports()
	}
	serial, parallel := run(1), run(8)
	if got, want := encodeAll(parallel), encodeAll(serial); got != want {
		t.Fatalf("parallel diverged from serial:\n--- parallel ---\n%s\n--- serial ---\n%s", got, want)
	}
}

// Problems must hand out a defensive copy: callers mutating the returned
// slice (or the Links inside) must not corrupt the report history.
func TestProblemsDefensiveCopy(t *testing.T) {
	h := newHarness(t, Config{})
	h.uploadAll(mixedWindow(h))
	h.tick()

	got := h.an.Problems()
	var withLinks *Problem
	for i := range got {
		if len(got[i].Links) > 0 {
			withLinks = &got[i]
			break
		}
	}
	if withLinks == nil {
		t.Fatalf("no link-set problem in %+v", got)
	}
	withLinks.Links[0] = topo.LinkID(-999)
	withLinks.Kind = ProblemHostDown
	got[0].Host = "smashed"

	again := h.an.Problems()
	for _, p := range again {
		if p.Host == "smashed" {
			t.Fatal("mutating the returned slice corrupted history")
		}
		for _, l := range p.Links {
			if l == topo.LinkID(-999) {
				t.Fatal("mutating returned Links corrupted history")
			}
		}
	}
}

// Algorithm-1 outputs must come out sorted wherever ties occur.
func TestTieOrderingSorted(t *testing.T) {
	// Four paths each voting the same three links -> a 3-way tie.
	paths := [][]topo.LinkID{
		{9, 4, 7}, {7, 9, 4}, {4, 7, 9}, {9, 7, 4},
	}
	votes := detectAbnormalLinks(paths)
	if len(votes) != 3 {
		t.Fatalf("tie set = %v", votes)
	}
	for i := 1; i < len(votes); i++ {
		if votes[i-1].Link >= votes[i].Link {
			t.Fatalf("tie set unsorted: %v", votes)
		}
	}
	// Sharded counting must agree with serial exactly.
	for _, workers := range []int{2, 3, 5} {
		serial := countLinkVotes(paths, 1, wholeVote)
		sharded := countLinkVotes(paths, workers, wholeVote)
		if len(serial) != len(sharded) {
			t.Fatalf("workers=%d: %v vs %v", workers, sharded, serial)
		}
		for l, v := range serial {
			if sharded[l] != v {
				t.Fatalf("workers=%d: link %d = %d, want %d", workers, l, sharded[l], v)
			}
		}
	}
}

// Upload and ObserveServicePerf race against Tick in the live
// deployment; run them concurrently (meaningful under -race) and check
// nothing is lost or double-counted.
func TestConcurrentUploadDuringTick(t *testing.T) {
	h := newHarness(t, Config{Workers: 4})
	hosts := h.tp.AllHosts()
	results := h.torMeshTraffic(2, nil)
	byHost := map[topo.HostID][]proto.ProbeResult{}
	for _, r := range results {
		byHost[r.SrcHost] = append(byHost[r.SrcHost], r)
	}

	const rounds = 50
	var wg sync.WaitGroup
	for _, hid := range hosts {
		hid := hid
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				h.an.Upload(proto.UploadBatch{Host: hid, Sent: h.an.Window(), Results: byHost[hid]})
				h.an.ObserveServicePerf(100)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			h.an.Tick()
			h.an.Problems()
			h.an.Reports()
			h.an.LastReport()
		}
	}()
	wg.Wait()
	<-done
	h.an.Tick() // flush whatever landed after the last concurrent Tick

	var total int64
	for _, w := range h.an.Reports() {
		total += w.Cluster.Probes + w.Service.Probes
	}
	want := int64(len(results) * rounds)
	if total != want {
		t.Fatalf("probes accounted = %d, want %d", total, want)
	}
	if h.an.TotalWindows() != 21 {
		t.Fatalf("TotalWindows = %d", h.an.TotalWindows())
	}
}

var benchSink WindowReport

// benchWindow drives full analysis windows (upload + Tick) over a mixed
// workload; ReportAllocs tracks the SLA scratch-pool reuse.
func benchWindow(b *testing.B, workers int) {
	h := newHarness(b, Config{Workers: workers})
	results := mixedWindow(h)
	hosts := h.tp.AllHosts()
	byHost := map[topo.HostID][]proto.ProbeResult{}
	for _, hid := range hosts {
		byHost[hid] = nil
	}
	for _, r := range results {
		byHost[r.SrcHost] = append(byHost[r.SrcHost], r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.eng.RunUntil(h.eng.Now() + 20*sim.Second)
		now := h.eng.Now()
		for _, hid := range hosts {
			h.an.Upload(proto.UploadBatch{Host: hid, Sent: now, Results: byHost[hid]})
		}
		benchSink = h.an.Tick()
	}
}

func BenchmarkAnalyzerWindow(b *testing.B)          { benchWindow(b, 1) }
func BenchmarkAnalyzerWindowParallel4(b *testing.B) { benchWindow(b, 4) }
