// Package api is the ops-console front door of the Fig-3 deployment: a
// net/http JSON server answering operator queries over a live system —
// incidents from the alert tier, per-window analyzer reports, historical
// range/quantile queries from the tsdb, ingest-pipeline drop accounting,
// and on-demand watchdog diagnosis. It is the HTTP face the paper's
// "monitoring console" implies but never specifies.
//
// The server is composed from narrow sub-surfaces, each reading through
// its own backend interface (satisfied by *alert.Engine, *analyzer.
// Analyzer, *tsdb.DB / *tsdb.Follower, *pipeline.Pipeline):
//
//   - incidents.go — incident lifecycle queries (IncidentSource)
//   - windows.go   — per-window analyzer reports (WindowSource)
//   - series.go    — tsdb range/quantile queries (SeriesStore)
//   - ops.go       — healthz, pipeline stats, metrics, diagnose, peers
//   - stream.go    — SSE/long-poll push of window and incident updates,
//     fanned out by the bounded Hub (hub.go)
//
// Every JSON response leaves through one builder (respond.go): compact,
// built whole in a pooled buffer before the status line, Content-Length
// set, one Write.
//
// Every handler is read-only except /api/diagnose/{host}, which invokes
// the watchdog's §7.5 decision tree on demand. The server owns nothing,
// so it can front a deterministic simulation and the live TCP daemon
// with the same code. Point queries are bounded by a per-request
// timeout; streaming requests bypass the timeout (they are long-lived by
// design) and are bounded instead by the Hub's queue/shed policy and by
// Shutdown, which closes the hubs first so every streaming handler
// drains deterministically before the listener stops. When an Admission
// policy is wired, sheddable endpoints answer 429 + Retry-After while
// the ingest pipeline or the read follower is overloaded. Every endpoint
// keeps its own request/error/latency counters (served at /api/metrics).
package api

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/pipeline"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/tsdb"
)

// WindowSource serves analyzer window reports; *analyzer.Analyzer
// implements it.
type WindowSource interface {
	LastReport() (analyzer.WindowReport, bool)
	ReportByIndex(n int) (analyzer.WindowReport, bool)
	FirstRetainedWindow() int
	TotalWindows() int
}

// SeriesStore answers historical time-series queries; *tsdb.DB and
// *tsdb.Follower implement it, so a console can serve every range and
// quantile read from a replica that never contends with ingest.
type SeriesStore interface {
	Series() []string
	// Scan visits the points of [from, to] in time order under the
	// store's read lock — the range handler encodes them as they come —
	// and reports whether the series exists.
	Scan(name string, from, to sim.Time, fn func(tsdb.Point)) (found bool)
	// QuantileWithError reports the q-quantile and its worst-case
	// rank-error bound: 0 for exact series, the sketch tier's tracked
	// bound otherwise.
	QuantileWithError(name string, from, to sim.Time, q float64) (float64, float64, bool)
}

// StatsSource exposes the ingest pipeline's drop accounting;
// *pipeline.Pipeline implements it.
type StatsSource interface {
	Stats() pipeline.Stats
}

// ErrUnknownHost is returned by DiagnoseFunc implementations when the
// host does not exist; the server maps it to 404.
var ErrUnknownHost = errors.New("unknown host")

// DiagnoseFunc runs an on-demand diagnosis for one host — the only
// non-read endpoint. The wiring passes watchdog.DiagnoseHost here.
type DiagnoseFunc func(host string) (any, error)

// Backend bundles everything the server reads. Nil fields disable their
// endpoints with 503 (501 for a nil Diagnose), so partial deployments —
// the TCP daemon has no simulated cluster to diagnose — still serve the
// rest.
type Backend struct {
	Windows  WindowSource
	TSDB     SeriesStore
	Pipeline StatsSource
	Alerts   IncidentSource
	Diagnose DiagnoseFunc
	// Peers, when set, makes this a federation node's console: /api/peers
	// serves the node's role/peer table, and /healthz degrades to 503
	// while the node cannot hear a quorum of the federation.
	Peers PeerSource
	// Tenants, when set, serves /api/tenants: the controller's per-tenant
	// probe-budget grants from the deficit-round-robin scheduler.
	Tenants TenantSource
	// Admission, when set, load-sheds sheddable endpoints with 429 +
	// Retry-After while the ingest pipeline or read follower is
	// overloaded. /healthz and /api/metrics always answer.
	Admission *Admission
}

// Config tunes the server; zero values take the defaults.
type Config struct {
	// Addr is the listen address for Start (e.g. ":8080"). Ignored when
	// the handler is mounted by hand (httptest).
	Addr string
	// RequestTimeout bounds each point-query request end to end
	// (default 5 s). Streaming endpoints are exempt.
	RequestTimeout time.Duration
	// ShutdownTimeout bounds graceful drain on Shutdown (default 5 s).
	ShutdownTimeout time.Duration
	// Stream tunes the fan-out hubs behind /api/stream/*.
	Stream HubConfig
}

func (c *Config) setDefaults() {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.ShutdownTimeout <= 0 {
		c.ShutdownTimeout = 5 * time.Second
	}
	c.Stream.setDefaults()
}

// EndpointStats is one endpoint's counters.
type EndpointStats struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"` // responses with status >= 400
	TotalUS  int64  `json:"total_us"`
	MaxUS    int64  `json:"max_us"`
}

// Server is the ops HTTP server.
type Server struct {
	cfg     Config
	b       Backend
	handler http.Handler
	started time.Time

	// Fan-out hubs: analyzer window reports and incident transitions.
	windows   *Hub
	incidents *Hub

	// Requests refused by the Admission policy (429).
	shed atomic.Uint64

	mu      sync.Mutex
	metrics map[string]*EndpointStats
	httpSrv *http.Server
	ln      net.Listener
}

// surface is one mounted sub-surface of the console; mount hands its
// routes to the registrar Server.mount picked for it.
type surface interface {
	mount(route func(pattern, name string, h http.HandlerFunc))
}

// New builds a server over a backend.
func New(b Backend, cfg Config) *Server {
	cfg.setDefaults()
	if b.Admission != nil {
		b.Admission.setDefaults()
	}
	s := &Server{
		cfg:       cfg,
		b:         b,
		started:   time.Now(),
		metrics:   make(map[string]*EndpointStats),
		windows:   NewHub(cfg.Stream),
		incidents: NewHub(cfg.Stream),
	}

	// Streaming endpoints live outside the TimeoutHandler: it buffers
	// responses (no Flusher) and would kill every stream at the request
	// timeout. They get the same instrumentation and admission check.
	mux, streamMux := http.NewServeMux(), http.NewServeMux()
	s.mount(
		func(pattern, name string, h http.HandlerFunc) {
			mux.Handle(pattern, s.instrument(name, s.admit(h)))
		},
		func(pattern, name string, h http.HandlerFunc) {
			mux.Handle(pattern, s.instrument(name, h))
		},
		func(pattern, name string, h http.HandlerFunc) {
			streamMux.Handle(pattern, s.instrument(name, s.admit(h)))
		})
	timed := http.TimeoutHandler(mux, cfg.RequestTimeout,
		`{"error":"request timed out"}`)

	s.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/api/stream/") {
			streamMux.ServeHTTP(w, r)
			return
		}
		timed.ServeHTTP(w, r)
	})
	return s
}

// mount registers every route of the console: point queries through
// route, the operational endpoints that are never shed through exempt,
// the push endpoints through stream.
func (s *Server) mount(route, exempt, stream func(pattern, name string, h http.HandlerFunc)) {
	for _, sf := range []surface{
		&opsSurface{s: s, exempt: exempt},
		&incidentSurface{src: s.b.Alerts},
		&windowSurface{src: s.b.Windows},
		&seriesSurface{db: s.b.TSDB},
	} {
		sf.mount(route)
	}
	(&streamSurface{s: s}).mount(stream)
}

// Handler returns the fully wired (instrumented, timeout-bounded)
// handler — what tests mount on httptest.Server.
func (s *Server) Handler() http.Handler { return s.handler }

// WindowStream is the hub fanning out analyzer window reports; in-process
// readers (chaos, tests) subscribe here directly.
func (s *Server) WindowStream() *Hub { return s.windows }

// IncidentStream is the hub fanning out incident transitions.
func (s *Server) IncidentStream() *Hub { return s.incidents }

// ShedRequests reports how many requests the Admission policy refused.
func (s *Server) ShedRequests() uint64 { return s.shed.Load() }

// Check performs an in-process request through the full middleware stack
// (instrumentation + timeout) and returns nil iff the path answered with
// the wanted status. No socket is involved, so the chaos harness can
// assert "/healthz always answers 200" every window of a deterministic
// simulation. An empty path checks /healthz.
func (s *Server) Check(path string, wantStatus int) error {
	if path == "" {
		path = "/healthz"
	}
	if wantStatus == 0 {
		wantStatus = http.StatusOK
	}
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		body := rec.Body.String()
		if len(body) > 200 {
			body = body[:200]
		}
		return fmt.Errorf("api: GET %s answered %d, want %d: %s", path, rec.Code, wantStatus, body)
	}
	return nil
}

// Start listens on Config.Addr and serves in a background goroutine.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.httpSrv = &http.Server{
		Handler: s.handler,
		// Header/read bounds so a stuck client cannot pin a conn forever.
		// No WriteTimeout: streams write for the life of the subscription.
		ReadHeaderTimeout: s.cfg.RequestTimeout,
		ReadTimeout:       2 * s.cfg.RequestTimeout,
	}
	srv := s.httpSrv
	s.mu.Unlock()
	go func() {
		// ErrServerClosed is the normal Shutdown signal.
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("api: serve: %v\n", err)
		}
	}()
	return nil
}

// Addr returns the bound listen address (useful with Addr ":0").
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains the server deterministically: it closes both stream
// hubs first — every subscriber's Next returns false, so streaming
// handlers finish on their own — then lets net/http drain the remaining
// in-flight point queries. Safe to call without Start (it still closes
// the hubs, releasing in-process subscribers) and more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.windows.Close()
	s.incidents.Close()
	s.mu.Lock()
	srv := s.httpSrv
	s.httpSrv = nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.ShutdownTimeout)
		defer cancel()
	}
	return srv.Shutdown(ctx)
}

// Metrics snapshots the per-endpoint counters.
func (s *Server) Metrics() map[string]EndpointStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]EndpointStats, len(s.metrics))
	for k, v := range s.metrics {
		out[k] = *v
	}
	return out
}

// statusWriter captures the response code for error accounting and
// forwards Flush so SSE handlers can push frames through it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the per-endpoint counters.
func (s *Server) instrument(name string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		us := time.Since(t0).Microseconds()
		s.mu.Lock()
		m, ok := s.metrics[name]
		if !ok {
			m = &EndpointStats{}
			s.metrics[name] = m
		}
		m.Requests++
		if sw.status >= 400 {
			m.Errors++
		}
		m.TotalUS += us
		if us > m.MaxUS {
			m.MaxUS = us
		}
		s.mu.Unlock()
	})
}
