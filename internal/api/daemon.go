package api

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"

	"rpingmesh/internal/alert"
	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/controller"
	"rpingmesh/internal/pipeline"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/tsdb"
	"rpingmesh/internal/wire"
)

// DaemonConfig configures the live controller graph: the fabric and each
// tier's own settings. An empty Console.Addr leaves the ops console off.
type DaemonConfig struct {
	Topology   *topo.Topology
	Controller controller.Config
	Analyzer   analyzer.Config
	Pipeline   pipeline.Config
	Console    Config
}

// Daemon is the live deployment of the paper's Fig 3 behind a management
// network: agents register, pull pinglists and upload over TCP; uploads
// flow through the ingest pipeline into the Analyzer and the tsdb's
// sketch tier; every window folds into the alert engine and, with a
// console, streams out over HTTP.
type Daemon struct {
	Controller *controller.Controller
	Pipeline   *pipeline.Pipeline
	// Console is nil when DaemonConfig.Console.Addr is empty.
	Console *Server

	now      func() sim.Time
	eng      *sim.Engine // the Analyzer's, advanced to now before each window
	an       *analyzer.Analyzer
	follower *tsdb.Follower
	alerts   *alert.Engine
	srv      *wire.Server
}

// NewDaemon assembles the graph, starts the console and the pipeline, and
// serves agents on ln. ln is bound by the caller, so a failure to bind
// leaves nothing running; NewDaemon owns it from here and closes it on
// error. now is the daemon's clock. Alert transitions are logged to out.
func NewDaemon(cfg DaemonConfig, ln net.Listener, now func() sim.Time, out io.Writer) (*Daemon, error) {
	d := &Daemon{
		now:    now,
		eng:    sim.New(0),
		alerts: alert.NewEngine(alert.Config{}),
	}
	d.Controller = controller.New(sim.New(int64(now())), cfg.Topology, cfg.Controller)
	d.eng.RunUntil(now())
	d.an = analyzer.New(d.eng, cfg.Topology, d.Controller, cfg.Analyzer)

	// The primary journals its mutations so the console's follower can
	// catch up by delta: console reads never contend with ingest's lock.
	db := tsdb.Open(tsdb.Config{JournalCapacity: 1 << 16})
	d.an.SetMetricSink(db)
	d.follower = tsdb.NewFollower(db)
	d.Pipeline = pipeline.New(cfg.Pipeline)
	d.Pipeline.SubscribeRecords(analyzerTier{d.an, now})
	d.Pipeline.SubscribeRecords(db)

	// The daemon has no watchdog (counters live in the simulated fabric),
	// so /api/diagnose stays unwired and answers 501.
	d.alerts.AddNotifier(alert.LogNotifier{Logger: log.New(out, "alert: ", 0)})
	if cfg.Console.Addr != "" {
		backend := Backend{
			Windows: d.an, TSDB: d.follower, Pipeline: d.Pipeline, Alerts: d.alerts,
			Admission: &Admission{Pipeline: d.Pipeline, Follower: d.follower},
		}
		if d.Controller.Tenants() {
			backend.Tenants = d.Controller
		}
		d.Console = New(backend, cfg.Console)
		d.alerts.AddNotifier(d.Console.AlertNotifier())
		if err := d.Console.Start(); err != nil {
			ln.Close()
			return nil, fmt.Errorf("ops console: %w", err)
		}
	}
	d.Pipeline.Start()
	d.srv = wire.Serve(ln, d.Controller, d.Pipeline)
	return d, nil
}

// Tick closes the analyzer window at now and returns its report, after
// folding it into the incidents and publishing it on the console. One
// goroutine drives Tick; uploads keep landing concurrently.
func (d *Daemon) Tick() analyzer.WindowReport {
	d.eng.RunUntil(d.now())
	rep := d.an.Tick()
	d.alerts.Observe(rep)
	d.follower.CatchUp()
	if d.Console != nil {
		d.Console.PublishWindow(rep)
	}
	return rep
}

// CatchUp brings the console's follower up to the store between windows.
func (d *Daemon) CatchUp() { d.follower.CatchUp() }

// Close stops taking uploads before the pipeline's final drain: an upload
// the wire server accepted after Stop would be acked into a partition
// nothing drains any more.
func (d *Daemon) Close() error {
	var errs []error
	if d.Console != nil {
		if err := d.Console.Shutdown(context.Background()); err != nil {
			errs = append(errs, fmt.Errorf("ops console shutdown: %w", err))
		}
	}
	if err := d.srv.Close(); err != nil {
		errs = append(errs, fmt.Errorf("wire server close: %w", err))
	}
	d.Pipeline.Stop()
	return errors.Join(errs...)
}

// analyzerTier hands each batch to the Analyzer under a header copy
// stamped with the receive time, so host-down classification runs on the
// daemon's clock even when agent clocks skew. The columns are borrowed
// and the delivered batch is never written, so the pipeline's other
// sinks see what the agent sent.
type analyzerTier struct {
	an  *analyzer.Analyzer
	now func() sim.Time
}

func (t analyzerTier) UploadRecords(b *proto.RecordBatch) {
	h := *b
	h.Sent = t.now()
	t.an.UploadRecords(&h)
}
