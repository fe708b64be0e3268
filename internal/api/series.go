package api

import (
	"fmt"
	"math"
	"net/http"
	"strconv"

	"rpingmesh/internal/sim"
	"rpingmesh/internal/tsdb"
)

// seriesSurface serves tsdb queries: /api/series, /api/series/{name}/
// range and /api/series/{name}/quantile. Wire a *tsdb.Follower here to
// keep heavy readers off the ingest path.
type seriesSurface struct {
	db SeriesStore
}

func (ss *seriesSurface) mount(route func(pattern, name string, h http.HandlerFunc)) {
	route("GET /api/series", "series_list", ss.handleList)
	route("GET /api/series/{name}/range", "series_range", ss.handleRange)
	route("GET /api/series/{name}/quantile", "series_quantile", ss.handleQuantile)
}

func (ss *seriesSurface) handleList(w http.ResponseWriter, r *http.Request) {
	if ss.db == nil {
		writeErr(w, http.StatusServiceUnavailable, "tsdb not wired")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"series": ss.db.Series()})
}

// parseRange reads from/to (ns) query params; defaults cover everything.
func parseRange(r *http.Request) (from, to sim.Time, err error) {
	from, to = 0, sim.Time(math.MaxInt64)
	if v := r.URL.Query().Get("from"); v != "" {
		n, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil {
			return 0, 0, fmt.Errorf("bad from %q", v)
		}
		from = sim.Time(n)
	}
	if v := r.URL.Query().Get("to"); v != "" {
		n, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil {
			return 0, 0, fmt.Errorf("bad to %q", v)
		}
		to = sim.Time(n)
	}
	return from, to, nil
}

func (ss *seriesSurface) handleRange(w http.ResponseWriter, r *http.Request) {
	if ss.db == nil {
		writeErr(w, http.StatusServiceUnavailable, "tsdb not wired")
		return
	}
	name := r.PathValue("name")
	from, to, err := parseRange(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// {"count":N,"points":[…],"series":"…"} — the key order encoding/json
	// gives the map this reply once was. count precedes the points it
	// counts, so the points go in first, behind headroom for the longest
	// possible prefix, and the prefix is then laid down right up against
	// them.
	b := newBody()
	defer b.release()
	var head [rangeHeadroom]byte
	b.b = append(b.b, head[:]...)
	n := 0
	found := ss.db.Scan(name, from, to, func(p tsdb.Point) {
		if n > 0 {
			b.b = append(b.b, ',')
		}
		b.b = appendPoint(b.b, p)
		n++
	})
	if !found {
		writeErr(w, http.StatusNotFound, "no series %q", name)
		return
	}
	b.b = append(b.b, `],"series":`...)
	_ = b.marshal(name) // a string always encodes
	b.b = append(b.b, '}')
	pre := append(head[:0], `{"count":`...)
	pre = strconv.AppendInt(pre, int64(n), 10)
	pre = append(pre, `,"points":[`...)
	start := rangeHeadroom - len(pre)
	copy(b.b[start:], pre)
	send(w, http.StatusOK, b.b[start:])
}

// rangeHeadroom fits {"count":<any int>,"points":[ .
const rangeHeadroom = len(`{"count":`) + 20 + len(`,"points":[`)

func (ss *seriesSurface) handleQuantile(w http.ResponseWriter, r *http.Request) {
	if ss.db == nil {
		writeErr(w, http.StatusServiceUnavailable, "tsdb not wired")
		return
	}
	name := r.PathValue("name")
	from, to, err := parseRange(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	q := 0.5
	if v := r.URL.Query().Get("q"); v != "" {
		q, err = strconv.ParseFloat(v, 64)
		if err != nil || !(q >= 0 && q <= 1) { // written so that NaN is refused too
			writeErr(w, http.StatusBadRequest, "bad quantile %q (want 0..1)", v)
			return
		}
	}
	val, errBound, ok := ss.db.QuantileWithError(name, from, to, q)
	if !ok {
		writeErr(w, http.StatusNotFound, "no data for %q in range", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"series": name, "q": q, "value": val, "error_bound": errBound,
	})
}
