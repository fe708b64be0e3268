// Package analyzer implements the R-Pingmesh Analyzer (§4.3, §5): every
// 20 s it classifies the window's anomalous probes, detects anomalous
// RNICs, localizes switch problems with Algorithm 1, aggregates SLAs for
// the cluster and the service network, and assesses each problem's impact
// on the service (P0/P1/P2 or "the network is innocent").
//
// The attribution cascade is a fixed sequence of stages over one window's
// records (Tick runs them in order; state.go holds the per-record causes
// they share). The paper's order:
//
//  1. Timeouts toward hosts that stopped uploading → host down (not a
//     network problem).
//  2. Timeouts whose target QPN no longer matches the Controller registry
//     → QPN-reset probe noise.
//  3. Timeouts hitting several RNICs of one host at once, or whose target
//     host shows abnormally high responder delay → Agent-CPU-overload
//     noise (the §6 false-positive fix).
//  4. RNICs with >10 % ToR-mesh timeouts → RNIC problems; their timeouts
//     are quarantined from switch localization for 60 s.
//  5. Everything left → switch network problems → Algorithm 1 voting over
//     probe + ACK paths, or 007's democratic weight on the same vote
//     (Config.Localizer).
//
// With Config.Workers > 1 the data-parallel stages (ToR-mesh RNIC
// statistics, Algorithm 1 vote counting, SLA aggregation) shard across a
// worker pool and merge deterministically, so the report stream is
// bit-identical to the serial pass — the golden equivalence test pins
// this down.
package analyzer

import (
	"fmt"
	"sync"

	"rpingmesh/internal/metrics"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// Priority is the paper's impact triage (§2.4).
type Priority int

const (
	// P0: severe service impact, fix immediately.
	P0 Priority = iota
	// P1: in the service network but impact below the tolerance
	// threshold; fixing is a cost/benefit decision.
	P1
	// P2: outside the service network; isolate/repair to prevent future
	// impact.
	P2
)

func (p Priority) String() string {
	switch p {
	case P0:
		return "P0"
	case P1:
		return "P1"
	case P2:
		return "P2"
	default:
		return fmt.Sprintf("P%d", int(p))
	}
}

// ProblemKind labels what the Analyzer localized.
type ProblemKind int

const (
	// ProblemRNIC covers the RNIC, its cable, and the switch port it
	// plugs into — probing cannot tell them apart (§4.3.2 footnote).
	ProblemRNIC ProblemKind = iota
	// ProblemSwitchLink is an in-network link localized by voting.
	ProblemSwitchLink
	// ProblemHostDown is a host that stopped uploading.
	ProblemHostDown
	// ProblemHighProcDelay is an end-host processing bottleneck (CPU
	// overload, §7.1 #12).
	ProblemHighProcDelay
	// ProblemHighRTT is network congestion: RTT inflated without drops.
	ProblemHighRTT
)

func (k ProblemKind) String() string {
	switch k {
	case ProblemRNIC:
		return "rnic"
	case ProblemSwitchLink:
		return "switch-link"
	case ProblemHostDown:
		return "host-down"
	case ProblemHighProcDelay:
		return "high-proc-delay"
	case ProblemHighRTT:
		return "high-rtt"
	default:
		return "unknown"
	}
}

// Problem is one detected-and-located problem.
type Problem struct {
	Kind     ProblemKind
	Priority Priority
	// Device is set for RNIC / host / proc-delay problems.
	Device topo.DeviceID
	Host   topo.HostID
	// Link is the most suspicious link for switch-link problems.
	Link topo.LinkID
	// Links holds every link tied at the top vote count (Algorithm 1
	// returns "abnormal links with the largest abnormal_cnt" — a set;
	// plane-symmetric CLOS segments are genuinely indistinguishable to
	// binary tomography). Sorted by link ID.
	Links []topo.LinkID
	// FromServiceTracing reports which function detected it.
	FromServiceTracing bool
	// Evidence is the anomalous probe count behind the detection.
	Evidence int
	// Window is the analysis window index that reported it.
	Window int
}

// SLA is one network's per-window service-level summary (§5: drop rates
// split by attribution, and latency distributions P50–P999).
type SLA struct {
	Probes         int64
	RNICDrops      int64
	SwitchDrops    int64
	NoiseDrops     int64 // host-down + QPN-reset + CPU-overload noise
	RNICDropRate   float64
	SwitchDropRate float64
	RTT            metrics.Summary
	ResponderDelay metrics.Summary
	ProberDelay    metrics.Summary
}

// WindowReport is the outcome of one 20 s analysis window.
type WindowReport struct {
	// Index is the stable, monotonically increasing window sequence
	// number: window k is the k-th Tick ever run (0-based). It survives
	// RetainWindows trimming — slice position in Reports() does not — so
	// everything downstream (Problem.Window, the alert tier's incident
	// history, /api/windows/{n}) keys on it, never on slice position.
	Index      int
	Start, End sim.Time

	Cluster SLA // Cluster Monitoring probes
	Service SLA // Service Tracing probes

	// PerToR aggregates Cluster Monitoring SLAs per destination ToR
	// (§7.4: hierarchical aggregation is sound for Cluster Monitoring,
	// where every ToR receives plenty of probes — unlike Service Tracing,
	// where it misleads and is deliberately not computed).
	PerToR map[topo.DeviceID]SLA

	// SuspiciousSwitches is footnote 5's variant of Algorithm 1: the
	// most-voted switches across this window's anomalous paths, sorted by
	// switch ID.
	SuspiciousSwitches []SwitchVote

	HostDownTimeouts int
	QPNResetTimeouts int
	CPUNoiseTimeouts int

	Problems []Problem

	// ServicePerf is the mean service performance metric over the window
	// (as reported via ObserveServicePerf), 0 if none.
	ServicePerf float64
	// PerfDegraded reports whether ServicePerf fell below the tolerance
	// threshold relative to the baseline.
	PerfDegraded bool
	// NetworkInnocent is set when performance degraded but no P0/P1
	// problem exists: the network team is off the hook (§2.4, §7.2).
	NetworkInnocent bool
}

// QPNSource lets the Analyzer check a probe's target QPN against the
// latest registry (the Controller implements it).
type QPNSource interface {
	CurrentQPN(dev topo.DeviceID) (rnic.QPN, bool)
}

// MetricSink receives the Analyzer's per-window SLA/RTT aggregates as
// time-series points — the storage tier of Fig 3. internal/tsdb.DB
// implements it; the published series names are listed on publish.
type MetricSink interface {
	Append(series string, t sim.Time, v float64)
}

// Config parameterizes the Analyzer; zero values take the paper's
// settings.
type Config struct {
	// Window is the analysis period (20 s).
	Window sim.Time
	// RNICTimeoutFrac is the ToR-mesh timeout fraction above which an
	// RNIC is anomalous (0.10).
	RNICTimeoutFrac float64
	// RNICQuarantine is how long an anomalous RNIC's timeouts are
	// excluded from switch localization (60 s).
	RNICQuarantine sim.Time
	// MinSwitchEvidence is the minimum anomalous-probe count before the
	// voting localizer runs (3).
	MinSwitchEvidence int
	// MinCPUNoiseRNICs is the number of distinct same-host target RNICs
	// that must time out simultaneously to classify CPU-overload noise
	// (2).
	MinCPUNoiseRNICs int
	// HighDelayFactor: a host whose responder delay exceeds this multiple
	// of the cluster median is treated as CPU-overloaded (20).
	HighDelayFactor float64
	// HighRTTFactor: service RTT P99 above this multiple of the service
	// baseline flags congestion (5).
	HighRTTFactor float64
	// DegradeFrac is the maximum tolerable service-performance
	// degradation before a problem becomes P0 (0.3 = 30 % drop).
	DegradeFrac float64
	// ServiceLinkTTL is how long a link stays in the service-network set
	// after a service-tracing probe last crossed it (2 min).
	ServiceLinkTTL sim.Time
	// RetainWindows bounds the in-memory report history: only the most
	// recent K WindowReports are kept, so memory is O(retention) even
	// over simulated months (default 8192 ≈ 45 h of 20 s windows).
	// Problems() and Reports() cover the retained horizon; the
	// full history lives in the tsdb the Analyzer publishes into.
	RetainWindows int
	// Workers shards the data-parallel stages (ToR-mesh RNIC statistics,
	// Algorithm 1 vote counting, SLA aggregation) across this many
	// goroutines per window. 0 or 1 analyzes serially. Shard merges are
	// deterministic, so the report stream is bit-identical for any value
	// — seeded simulations keep the default while the live deployment
	// (cmd/rpmesh-controller) sets it to the core count.
	Workers int
	// Localizer selects the switch-localization vote weight: "" or
	// "alg1" runs the paper's Algorithm 1 (a whole vote per link a bad
	// path crosses); "007" runs 007's democratic per-flow voting, where
	// each bad path splits one vote equally over its links. Both emit
	// identical problem shapes, so every downstream stage and consumer
	// is localizer-agnostic.
	Localizer string
}

func (c *Config) setDefaults() {
	if c.Window <= 0 {
		c.Window = 20 * sim.Second
	}
	if c.RNICTimeoutFrac <= 0 {
		c.RNICTimeoutFrac = 0.10
	}
	if c.RNICQuarantine <= 0 {
		c.RNICQuarantine = sim.Minute
	}
	if c.MinSwitchEvidence <= 0 {
		c.MinSwitchEvidence = 3
	}
	if c.MinCPUNoiseRNICs <= 0 {
		c.MinCPUNoiseRNICs = 2
	}
	if c.HighDelayFactor <= 0 {
		c.HighDelayFactor = 20
	}
	if c.HighRTTFactor <= 0 {
		c.HighRTTFactor = 5
	}
	if c.DegradeFrac <= 0 {
		c.DegradeFrac = 0.3
	}
	if c.ServiceLinkTTL <= 0 {
		c.ServiceLinkTTL = 2 * sim.Minute
	}
	if c.RetainWindows <= 0 {
		c.RetainWindows = 8192
	}
	if c.Localizer == "" {
		c.Localizer = LocalizerAlg1
	}
}

// Analyzer consumes Agent uploads and produces WindowReports.
//
// Concurrency: Upload, ObserveServicePerf and the read accessors are safe
// to call concurrently with Tick (the live deployment's TCP receivers do
// exactly that). Tick itself must not be called concurrently with Tick —
// one analysis goroutine drives the windows.
type Analyzer struct {
	eng  *sim.Engine
	tp   *topo.Topology
	cfg  Config
	qpns QPNSource

	// mu guards the fields fed from other goroutines (pending,
	// lastUpload, perfSamples, perfBaseline) and the published history
	// (windows, ticks). Tick snapshots the inputs under mu, analyzes
	// without it, then appends the report under mu.
	mu sync.Mutex

	// pending accumulates the window's probe records in columnar form;
	// spare is last window's store, recycled (Reset keeps column
	// capacity) so steady-state ingest stops allocating.
	pending *proto.Records
	spare   *proto.Records

	lastUpload map[topo.HostID]sim.Time
	quarantine map[topo.DeviceID]sim.Time // RNIC -> quarantined-until

	// Service-network membership with expiry (§4.3.4). Tick-only.
	serviceLinks map[topo.LinkID]sim.Time
	serviceHosts map[topo.HostID]sim.Time

	// Service performance metric feed.
	perfSamples  []float64
	perfBaseline float64

	// Baseline learned from calm history. Tick-only.
	rttBaselineP99 float64

	// linkWeight is the switch vote's per-path link weight, picked by
	// Config.Localizer.
	linkWeight func([]topo.LinkID) int64

	// accPool holds the per-group SLA scratch accumulators reused across
	// windows (keyed "cluster", "service", "tor:<id>"). Tick-only.
	accPool map[string]*slaAcc

	windows []WindowReport
	// ticks counts every analysis window ever run; with bounded
	// retention len(windows) can lag behind it.
	ticks int

	sink MetricSink

	// DisableCPUNoiseFilter reproduces the pre-fix behaviour of §6 (the
	// 30 false-positive RNIC problems) for the Fig 6 ablation.
	DisableCPUNoiseFilter bool

	// DisableRNICDetection turns off the ToR-mesh anomalous-RNIC analysis
	// (§4.3.2) for the ablation: RNIC-caused timeouts then contaminate
	// switch localization, as in plain Pingmesh.
	DisableRNICDetection bool
}

// New builds an Analyzer.
func New(eng *sim.Engine, tp *topo.Topology, qpns QPNSource, cfg Config) *Analyzer {
	cfg.setDefaults()
	a := &Analyzer{
		eng:          eng,
		tp:           tp,
		cfg:          cfg,
		qpns:         qpns,
		lastUpload:   make(map[topo.HostID]sim.Time),
		quarantine:   make(map[topo.DeviceID]sim.Time),
		serviceLinks: make(map[topo.LinkID]sim.Time),
		serviceHosts: make(map[topo.HostID]sim.Time),
		accPool:      make(map[string]*slaAcc),
		linkWeight:   wholeVote,
	}
	if cfg.Localizer == Localizer007 {
		a.linkWeight = democraticVote
	}
	return a
}

// Window returns the configured analysis period.
func (a *Analyzer) Window() sim.Time { return a.cfg.Window }

// pendingLocked returns the pending record store, allocating or
// recycling last window's store on demand. Caller holds a.mu.
func (a *Analyzer) pendingLocked() *proto.Records {
	if a.pending == nil {
		if a.spare != nil {
			a.pending, a.spare = a.spare, nil
		} else {
			a.pending = &proto.Records{}
		}
	}
	return a.pending
}

// Upload implements proto.UploadSink (the boxed legacy path; the
// pipeline's flat path goes through UploadRecords).
func (a *Analyzer) Upload(batch proto.UploadBatch) {
	a.mu.Lock()
	a.lastUpload[batch.Host] = batch.Sent
	p := a.pendingLocked()
	for i := range batch.Results {
		p.AppendResult(batch.Results[i])
	}
	a.mu.Unlock()
}

// UploadRecords implements proto.RecordSink: the zero-boxing ingest
// path. The batch is borrowed — its columns are copied into the
// pending store before returning.
func (a *Analyzer) UploadRecords(b *proto.RecordBatch) {
	a.mu.Lock()
	a.lastUpload[b.Host] = b.Sent
	a.pendingLocked().AppendFrom(&b.Records)
	a.mu.Unlock()
}

// ObserveServicePerf feeds the service performance metric (e.g. training
// throughput) the impact assessment compares against its baseline.
func (a *Analyzer) ObserveServicePerf(v float64) {
	a.mu.Lock()
	a.perfSamples = append(a.perfSamples, v)
	if v > a.perfBaseline {
		a.perfBaseline = v
	}
	a.mu.Unlock()
}

// SetMetricSink directs the Analyzer to publish each window's aggregates
// into the given store (call before the first Tick).
func (a *Analyzer) SetMetricSink(s MetricSink) { a.sink = s }

// PendingResults reports the probe results uploaded but not yet consumed
// by a Tick — the Analyzer's ingest backlog. The chaos harness checks it
// returns to zero after every window close (the pipeline is flushed
// before Tick, and Tick snapshots everything pending), so a growing value
// under churn means results are leaking into a window that never closes.
func (a *Analyzer) PendingResults() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.pending == nil {
		return 0
	}
	return a.pending.Len()
}

// Reports returns the retained window reports (the most recent
// Config.RetainWindows of them). The returned slice is the caller's; the
// reports inside share their Problems/PerToR storage with the history.
func (a *Analyzer) Reports() []WindowReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]WindowReport, len(a.windows))
	copy(out, a.windows)
	return out
}

// TotalWindows reports how many analysis windows have ever run, retained
// or not.
func (a *Analyzer) TotalWindows() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ticks
}

// FirstRetainedWindow returns the sequence number of the oldest report
// still retained — TotalWindows() minus the retained count. The valid
// argument range for ReportByIndex is [FirstRetainedWindow, TotalWindows).
func (a *Analyzer) FirstRetainedWindow() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ticks - len(a.windows)
}

// ReportByIndex returns the retained report whose sequence number
// (WindowReport.Index) is n. ok is false when window n was trimmed by
// Config.RetainWindows or has not run yet — callers wanting older
// windows must go to the tsdb the Analyzer publishes into.
func (a *Analyzer) ReportByIndex(n int) (WindowReport, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	first := a.ticks - len(a.windows)
	if n < first || n >= a.ticks {
		return WindowReport{}, false
	}
	return a.windows[n-first], true
}

// LastReport returns the most recent window report.
func (a *Analyzer) LastReport() (WindowReport, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.windows) == 0 {
		return WindowReport{}, false
	}
	return a.windows[len(a.windows)-1], true
}

// Problems returns every problem reported across the retained windows.
// The result is a defensive deep copy — mutating it (or its Links
// slices) cannot corrupt the report history.
func (a *Analyzer) Problems() []Problem {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []Problem
	for _, w := range a.windows {
		for _, p := range w.Problems {
			if len(p.Links) > 0 {
				p.Links = append([]topo.LinkID(nil), p.Links...)
			}
			out = append(out, p)
		}
	}
	return out
}

// Tick runs one analysis window over everything uploaded since the last
// Tick. The experiment harness schedules it every cfg.Window; the live
// deployment's analysis loop calls it from a single goroutine.
func (a *Analyzer) Tick() WindowReport {
	now := a.eng.Now()

	// Snapshot the concurrently-fed inputs; everything after this runs
	// without the lock.
	a.mu.Lock()
	recs := a.pending
	a.pending = nil
	perfSamples := a.perfSamples
	a.perfSamples = nil
	perfBaseline := a.perfBaseline
	lastUpload := make(map[topo.HostID]sim.Time, len(a.lastUpload))
	for h, t := range a.lastUpload {
		lastUpload[h] = t
	}
	tick := a.ticks
	a.ticks++
	a.mu.Unlock()
	if recs == nil {
		recs = &proto.Records{}
	}

	rep := WindowReport{
		Index: tick,
		Start: now - a.cfg.Window,
		End:   now,
	}

	// Refresh service-network membership from this window's
	// service-tracing probes, then expire stale entries.
	for i, n := 0, recs.Len(); i < n; i++ {
		rt := recs.RouteAt(i)
		if rt.Kind != proto.ServiceTracing {
			continue
		}
		for _, l := range rt.ProbePath {
			a.serviceLinks[l] = now
		}
		for _, l := range rt.AckPath {
			a.serviceLinks[l] = now
		}
		a.serviceHosts[rt.SrcHost] = now
		a.serviceHosts[rt.DstHost] = now
	}
	for l, t := range a.serviceLinks {
		if now-t > a.cfg.ServiceLinkTTL {
			delete(a.serviceLinks, l)
		}
	}
	for h, t := range a.serviceHosts {
		if now-t > a.cfg.ServiceLinkTTL {
			delete(a.serviceHosts, h)
		}
	}

	// Performance metric for this window.
	if len(perfSamples) > 0 {
		sum := 0.0
		for _, v := range perfSamples {
			sum += v
		}
		rep.ServicePerf = sum / float64(len(perfSamples))
		if perfBaseline > 0 && rep.ServicePerf < (1-a.cfg.DegradeFrac)*perfBaseline {
			rep.PerfDegraded = true
		}
	}

	// The attribution cascade (§4.3), in the paper's order. Each stage
	// reads the causes earlier stages settled and adds its own.
	// cpuNoiseFilter runs after rnicDetect because it withdraws RNIC
	// problems the detector just reported (§6 describes the filter as a
	// post-deployment refinement of the RNIC analysis).
	st := &windowState{
		Now:        now,
		Recs:       recs,
		LastUpload: lastUpload,
		Report:     &rep,
	}
	a.stageClassify(st)
	a.stageHostDownFilter(st)
	a.stageQPNResetFilter(st)
	a.stageRNICDetect(st)
	a.stageCPUNoiseFilter(st)
	a.stageSwitchVote(st)
	a.stageSLAAggregate(st)
	a.stageBottleneckDetect(st)
	a.stageImpactAssess(st)

	a.mu.Lock()
	a.windows = append(a.windows, rep)
	if len(a.windows) > a.cfg.RetainWindows {
		shed := len(a.windows) - a.cfg.RetainWindows
		a.windows = append(a.windows[:0], a.windows[shed:]...)
	}
	// Recycle the analyzed store for the next window: nothing in the
	// report aliases its columns, and Reset keeps the capacity.
	recs.Reset()
	if a.spare == nil {
		a.spare = recs
	}
	a.mu.Unlock()
	a.publish(&rep)
	return rep
}

// publish ships the window's headline aggregates to the metric sink.
// Series names are stable API for dashboards and rpmesh-report:
//
//	cluster.probes, cluster.rtt.p50, cluster.rtt.p99,
//	cluster.drop.rnic_rate, cluster.drop.switch_rate,
//	cluster.responder.p99, service.probes, service.rtt.p50,
//	service.rtt.p99, noise.hostdown, noise.qpn_reset, noise.cpu,
//	problems.count
func (a *Analyzer) publish(rep *WindowReport) {
	if a.sink == nil {
		return
	}
	t := rep.End
	put := func(name string, v float64) { a.sink.Append(name, t, v) }
	put("cluster.probes", float64(rep.Cluster.Probes))
	put("cluster.rtt.p50", rep.Cluster.RTT.P50)
	put("cluster.rtt.p99", rep.Cluster.RTT.P99)
	put("cluster.drop.rnic_rate", rep.Cluster.RNICDropRate)
	put("cluster.drop.switch_rate", rep.Cluster.SwitchDropRate)
	put("cluster.responder.p99", rep.Cluster.ResponderDelay.P99)
	put("service.probes", float64(rep.Service.Probes))
	put("service.rtt.p50", rep.Service.RTT.P50)
	put("service.rtt.p99", rep.Service.RTT.P99)
	put("noise.hostdown", float64(rep.HostDownTimeouts))
	put("noise.qpn_reset", float64(rep.QPNResetTimeouts))
	put("noise.cpu", float64(rep.CPUNoiseTimeouts))
	put("problems.count", float64(len(rep.Problems)))
}
