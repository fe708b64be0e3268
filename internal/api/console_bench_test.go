package api

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"rpingmesh/internal/sim"
	"rpingmesh/internal/tsdb"
)

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so the benchmark measures the server and not a recorder.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// rangeFixture is a console over one exact series of the given length,
// all of it still in the raw tier, and a full-retention range request.
func rangeFixture(points int) (http.Handler, *http.Request) {
	db := tsdb.Open(tsdb.Config{})
	for i := 0; i < points; i++ {
		db.Append("cluster.rtt.p50", sim.Time(i)*20*sim.Second, 2400+float64(i%97)*0.37)
	}
	h := New(Backend{TSDB: db}, Config{}).Handler()
	return h, httptest.NewRequest(http.MethodGet, "/api/series/cluster.rtt.p50/range?from=0", nil)
}

func serveDiscarding(tb testing.TB, h http.Handler, req *http.Request) {
	w := &discardWriter{h: make(http.Header)}
	h.ServeHTTP(w, req)
	if w.code != http.StatusOK || w.n == 0 {
		tb.Fatalf("range answered %d with %d bytes", w.code, w.n)
	}
}

// BenchmarkConsoleRange is one full-retention /range read through the
// whole middleware stack. The gated figure is allocs/op: a read costs
// O(1) allocations however many points it returns (the bytes/op that
// remain are net/http.TimeoutHandler's copy of the finished body).
func BenchmarkConsoleRange(b *testing.B) {
	for _, points := range []int{256, 2048} {
		b.Run(fmt.Sprintf("points=%d", points), func(b *testing.B) {
			h, req := rangeFixture(points)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveDiscarding(b, h, req)
			}
		})
	}
}

// The benchmark's property as a tier-1 test: allocations per read do not
// grow with the number of points read.
func TestConsoleRangeAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	allocs := func(points int) float64 {
		h, req := rangeFixture(points)
		return testing.AllocsPerRun(50, func() { serveDiscarding(t, h, req) })
	}
	small, large := allocs(256), allocs(2048)
	if large-small > 2 {
		t.Fatalf("allocs per /range read grow with the points read: %.0f at 256 points, %.0f at 2048", small, large)
	}
}
