package api

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"rpingmesh/internal/alert"
	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/sim"
)

// streamSurface serves the push endpoints:
//
//	GET /api/stream/windows    — analyzer window reports as they close
//	GET /api/stream/incidents  — incident lifecycle transitions
//
// Default delivery is Server-Sent Events (curl -N). With ?since=N the
// endpoint switches to long-poll: retained events after seq N are
// returned immediately, otherwise the request parks (up to ?wait_ms,
// default 10 s) for the next publish. Both modes ride the bounded Hub,
// so a stalled client sheds and is eventually evicted instead of
// back-pressuring the window loop.
type streamSurface struct {
	s *Server
}

func (ss *streamSurface) mount(route func(pattern, name string, h http.HandlerFunc)) {
	route("GET /api/stream/windows", "stream_windows", func(w http.ResponseWriter, r *http.Request) {
		ss.handleStream(ss.s.windows, w, r)
	})
	route("GET /api/stream/incidents", "stream_incidents", func(w http.ResponseWriter, r *http.Request) {
		ss.handleStream(ss.s.incidents, w, r)
	})
}

// windowStreamJSON is the window-stream payload: the index plus the
// cluster rollup, not the full report (hundreds of KB on big fabrics) —
// subscribers fetch /api/windows/{n} when they want everything.
type windowStreamJSON struct {
	Window   int          `json:"window"`
	Start    sim.Time     `json:"start_ns"`
	Probes   int64        `json:"probes"`
	Problems int          `json:"problems"`
	Cluster  analyzer.SLA `json:"cluster"`
}

// incidentStreamJSON is the incident-stream payload.
type incidentStreamJSON struct {
	Event    string       `json:"event"`
	Window   int          `json:"window"`
	At       sim.Time     `json:"at_ns"`
	Incident incidentJSON `json:"incident"`
}

// PublishWindow pushes one closed analyzer window into the window hub.
// The wiring calls it from the per-window loop (core.Cluster.OnWindow or
// the daemon's tick).
func (s *Server) PublishWindow(rep analyzer.WindowReport) {
	s.windows.Publish("window", windowStreamJSON{
		Window:   rep.Index,
		Start:    rep.Start,
		Probes:   rep.Cluster.Probes,
		Problems: len(rep.Problems),
		Cluster:  rep.Cluster,
	})
}

// AlertNotifier adapts the incident hub to the alert engine's Notifier.
// It only publishes into the hub — Publish never blocks and never calls
// back into the engine, so it is safe inside the engine's critical
// section where notifiers run.
func (s *Server) AlertNotifier() alert.Notifier {
	return alert.NotifierFunc(func(e alert.Event) {
		s.incidents.Publish("incident", incidentStreamJSON{
			Event:    e.Type.String(),
			Window:   e.Window,
			At:       e.At,
			Incident: incidentToJSON(e.Incident),
		})
	})
}

func (ss *streamSurface) handleStream(hub *Hub, w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("since") != "" {
		ss.longPoll(hub, w, r)
		return
	}
	ss.serveSSE(hub, w, r)
}

// serveSSE streams hub events as text/event-stream frames until the
// client goes away, the subscriber is evicted, or the server shuts down
// (hub close → Next returns false → deterministic drain).
func (ss *streamSurface) serveSSE(hub *Hub, w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	sub := hub.Subscribe("sse:" + r.RemoteAddr)
	if sub == nil {
		writeErr(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	done := r.Context().Done()
	for {
		ev, ok := sub.Next(done)
		if !ok {
			return
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n",
			ev.Seq, ev.Kind, ev.Data); err != nil {
			return
		}
		flusher.Flush()
	}
}

// pollJSON is the long-poll response shape. NextSince feeds the next
// request's ?since=; OldestRetained > since+1 means the replay ring has
// already evicted part of the gap and the client should resync.
type pollJSON struct {
	Events         []StreamEvent `json:"events"`
	Count          int           `json:"count"`
	NextSince      uint64        `json:"next_since"`
	OldestRetained uint64        `json:"oldest_retained"`
}

func (ss *streamSurface) longPoll(hub *Hub, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	since, err := strconv.ParseUint(q.Get("since"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad since %q", q.Get("since"))
		return
	}
	wait := 10 * time.Second
	if v := q.Get("wait_ms"); v != "" {
		ms, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil || ms < 0 {
			writeErr(w, http.StatusBadRequest, "bad wait_ms %q", v)
			return
		}
		// Capped before the multiplication: a huge wait_ms must not wrap.
		wait = time.Duration(min(ms, 60_000)) * time.Millisecond
	}

	evs, oldest := hub.ReplaySince(since)
	if len(evs) == 0 && wait > 0 {
		// Nothing new yet: park on a subscription for the next publish.
		sub := hub.Subscribe("poll:" + r.RemoteAddr)
		if sub == nil {
			writeErr(w, http.StatusServiceUnavailable, "server shutting down")
			return
		}
		// An event published between the scan above and Subscribe reached
		// neither the scan nor the new queue; re-scan now that the
		// subscription is registered so nothing can fall in the gap. If the
		// re-scan finds events, answer with those — anything queued on the
		// subscription is a duplicate or newer, and the next poll's ?since=
		// picks it up.
		evs, oldest = hub.ReplaySince(since)
		if len(evs) == 0 {
			timer := time.NewTimer(wait)
			stop := make(chan struct{})
			go func() {
				select {
				case <-timer.C:
				case <-r.Context().Done():
				case <-stop:
				}
				sub.Close() // wakes Next
			}()
			if ev, ok := sub.Next(r.Context().Done()); ok {
				evs = append(evs, ev)
				// Grab whatever landed in the same burst without waiting.
				for {
					ev, ok := sub.TryNext()
					if !ok {
						break
					}
					evs = append(evs, ev)
				}
			}
			close(stop)
			timer.Stop()
		}
		sub.Close()
	}
	next := since
	if n := len(evs); n > 0 {
		next = evs[n-1].Seq
	}
	writeJSON(w, http.StatusOK, pollJSON{
		Events: evs, Count: len(evs), NextSince: next, OldestRetained: oldest,
	})
}
