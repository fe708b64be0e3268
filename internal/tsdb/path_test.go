package tsdb

import (
	"math/rand"
	"strings"
	"testing"

	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

func pathBatch(host string, sent sim.Time) *proto.RecordBatch {
	return &proto.RecordBatch{Host: topo.HostID(host), Sent: sent}
}

// TestIngestPerPathSeries: records ingested under the same source host
// but different traced paths must land in distinct per-path sketch
// series, each answering its own quantiles, while the per-host rollup
// still sees everything.
func TestIngestPerPathSeries(t *testing.T) {
	db := Open(Config{})
	b := pathBatch("host-0", sim.Second)
	fast := b.AddRoute(proto.Route{
		SrcDev: "rnic-0", DstDev: "rnic-9", ProbePath: []topo.LinkID{1, 2, 3},
	})
	slow := b.AddRoute(proto.Route{
		SrcDev: "rnic-0", DstDev: "rnic-9", ProbePath: []topo.LinkID{1, 7, 3},
	})
	for i := 0; i < 500; i++ {
		b.Append(fast, uint64(i), sim.Second, 0, 10_000, 0, 0, 0)
		b.Append(slow, uint64(i), sim.Second, 0, 90_000, 0, 0, 0)
	}
	db.IngestRecords(b)

	var pathSeries []string
	for _, name := range db.Series() {
		if strings.HasPrefix(name, "path.rtt.") {
			pathSeries = append(pathSeries, name)
		}
	}
	if len(pathSeries) != 2 {
		t.Fatalf("want 2 per-path series, got %v", pathSeries)
	}
	fastName := pathSeriesName(b.Route(fast))
	slowName := pathSeriesName(b.Route(slow))
	if fastName == slowName {
		t.Fatalf("distinct paths keyed identically: %s", fastName)
	}
	if v, _, ok := db.QuantileWithError(fastName, 0, sim.Minute, 0.5); !ok || v != 10_000 {
		t.Fatalf("fast path median = %v (ok=%v), want 10000", v, ok)
	}
	if v, _, ok := db.QuantileWithError(slowName, 0, sim.Minute, 0.5); !ok || v != 90_000 {
		t.Fatalf("slow path median = %v (ok=%v), want 90000", v, ok)
	}
	// The per-host rollup mixes both paths: its median sits between them.
	if v, ok := db.Quantile("ingest.rtt.host-0", 0, sim.Minute, 0.95); !ok || v < 10_000 {
		t.Fatalf("host rollup lost data: %v (ok=%v)", v, ok)
	}

	// Same path re-interned in a later batch lands in the same series.
	b2 := pathBatch("host-1", 2*sim.Second)
	again := b2.AddRoute(proto.Route{
		SrcDev: "rnic-0", DstDev: "rnic-9", ProbePath: []topo.LinkID{1, 2, 3},
	})
	b2.Append(again, 0, 2*sim.Second, 0, 30_000, 0, 0, 0)
	db.IngestRecords(b2)
	if got := pathSeriesName(b2.Route(again)); got != fastName {
		t.Fatalf("stable path keyed differently across batches: %s vs %s", got, fastName)
	}
	count := 0
	for _, name := range db.Series() {
		if strings.HasPrefix(name, "path.rtt.") {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("re-ingesting a known path grew the series set to %d", count)
	}
}

// TestIngestPathBudgetInvariant: per-path keying multiplies series
// cardinality, and the sketch tier's byte budget must keep holding —
// SketchBytes ≤ SketchSeries × SketchBudgetPerSeries over a churn of
// hundreds of distinct paths.
func TestIngestPathBudgetInvariant(t *testing.T) {
	db := Open(Config{SketchBytesPerSeries: 16 << 10, SketchWindowBuckets: 32})
	for p := 0; p < 300; p++ {
		b := pathBatch("host-0", sim.Time(p)*sim.Second)
		ri := b.AddRoute(proto.Route{
			SrcDev: "rnic-0", DstDev: "rnic-9",
			ProbePath: []topo.LinkID{topo.LinkID(p), topo.LinkID(p + 1)},
		})
		for i := 0; i < 200; i++ {
			b.Append(ri, uint64(i), b.Sent, 0, sim.Time(1000+i), 0, 0, 0)
		}
		db.IngestRecords(b)
	}
	st := db.Stats()
	if st.SketchSeries < 300 {
		t.Fatalf("SketchSeries = %d, want ≥ 300 per-path series", st.SketchSeries)
	}
	if st.SketchBytes > st.SketchSeries*st.SketchBudgetPerSeries {
		t.Fatalf("budget invariant violated: %d bytes > %d series × %d",
			st.SketchBytes, st.SketchSeries, st.SketchBudgetPerSeries)
	}
	// Timeouts contribute to counts but never to path sketches.
	b := pathBatch("host-0", 400*sim.Second)
	ri := b.AddRoute(proto.Route{SrcDev: "rnic-0", DstDev: "rnic-9", ProbePath: []topo.LinkID{9999}})
	b.Append(ri, 0, b.Sent, proto.RecTimeout, 0, 0, 0, 0)
	db.IngestRecords(b)
	if _, ok := db.Latest(pathSeriesName(b.Route(ri))); ok {
		t.Fatal("timeout-only path grew a sketch series")
	}
}

// TestPathSeriesResolution is a property test of IngestRecords' cached
// series resolution over random routes: every route resolves to exactly
// pathSeriesName(rt), routes with equal (src, dst, path) share one series
// whichever slices carry the path, and the journal holds exactly the
// entries a per-record name build would write, in the same order.
func TestPathSeriesResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	devs := []topo.DeviceID{"rnic-0", "rnic-1", "rnic-2", "r>1", "r"}
	db := Open(Config{JournalCapacity: 1 << 16})
	var want []journalEntry
	byKey := map[pathKey]*sketchSeries{}
	for bi := 0; bi < 40; bi++ {
		b := pathBatch("host-"+string(rune('a'+rng.Intn(3))), sim.Time(bi)*sim.Second)
		for r := rng.Intn(6); r >= 0; r-- {
			path := make([]topo.LinkID, rng.Intn(4))
			for i := range path {
				path[i] = topo.LinkID(rng.Intn(3))
			}
			ri := b.AddRoute(proto.Route{SrcDev: devs[rng.Intn(len(devs))], DstDev: devs[rng.Intn(len(devs))], ProbePath: path})
			for n := rng.Intn(4); n >= 0; n-- {
				var fl uint8
				if rng.Intn(5) == 0 {
					fl = proto.RecTimeout
				}
				b.Append(ri, 0, b.Sent, fl, sim.Time(1+rng.Intn(1000)), 0, 0, 0)
			}
		}
		for i := 0; i < b.Len(); i++ {
			rt := b.RouteAt(i)
			want = append(want, journalEntry{op: opCount, name: string(rt.DstDev), v: 1})
			if !b.Timeout(i) {
				v := float64(b.NetworkRTT(i))
				want = append(want,
					journalEntry{op: opSketch, name: "ingest.rtt." + string(b.Host), t: b.Sent, v: v},
					journalEntry{op: opSketch, name: pathSeriesName(rt), t: b.Sent, v: v})
			}
		}
		db.IngestRecords(b)

		db.mu.Lock()
		for ri := int32(0); ri < int32(b.Routes()); ri++ {
			rt := b.Route(ri)
			ns := db.pathSketchLocked(rt)
			if name := pathSeriesName(rt); ns.name != name || db.sk[name] != ns.ss {
				t.Fatalf("batch %d route %d resolves to %q, want %q", bi, ri, ns.name, name)
			}
			k := pathKey{src: rt.SrcDev, dst: rt.DstDev, hash: pathHash(rt.ProbePath)}
			if prev, ok := byKey[k]; ok && prev != ns.ss {
				t.Fatalf("batch %d route %d: equal (src, dst, path) resolved to two series", bi, ri)
			}
			byKey[k] = ns.ss
		}
		db.mu.Unlock()
	}
	if got := db.jr.n; got != len(want) {
		t.Fatalf("journal holds %d entries, want %d", got, len(want))
	}
	for i, w := range want {
		if got := db.jr.at(i); got != w {
			t.Fatalf("journal entry %d = %+v, want %+v", i, got, w)
		}
	}
}
