package main

// stack.go is the benchmark's one adapter: every call into
// rpingmesh/internal/* — stack assembly, upload, tick, publish, query
// plumbing, fault injection — lives in this file, behind the narrow
// local types and methods the rest of bench/ uses. When the boxed
// UploadBatch API is deleted (ROADMAP item 2), liveStack.upload and the
// sink wrappers' signatures are the only follow-up.

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"rpingmesh"
	"rpingmesh/internal/alert"
	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/api"
	"rpingmesh/internal/controller"
	"rpingmesh/internal/core"
	"rpingmesh/internal/faultgen"
	"rpingmesh/internal/metrics"
	"rpingmesh/internal/pipeline"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/service"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/tsdb"
	"rpingmesh/internal/wire"
)

// Local names for the few internal types that cross the adapter.
type (
	recordBatch  = proto.RecordBatch
	uploadBatch  = proto.UploadBatch
	windowReport = analyzer.WindowReport
	streamEvent  = api.StreamEvent
	subscriber   = *api.Subscriber
	topoView     = *topo.Topology
	vtime        = sim.Time
)

const (
	vsecond   = sim.Second
	windowLen = 20 * sim.Second
)

func vsecs(t vtime) float64 { return t.Seconds() }

// The sink shapes the tracer wraps; structurally identical to
// proto.UploadSink, proto.RecordSink and analyzer.MetricSink.
type (
	uploadSink interface{ Upload(uploadBatch) }
	recordSink interface{ UploadRecords(*recordBatch) }
	metricSink interface {
		Append(series string, t vtime, v float64)
	}
)

// closSize names the fabrics the workloads run on.
type closSize int

const (
	clos256 closSize = iota // 4 pods × 8 ToRs × 8 hosts: BenchmarkEngineSharded's fabric
	clos64                  // a quarter of it: 4 pods × 2 ToRs × 8 hosts
	clos16                  // -scale tiny: 2 pods × 2 ToRs × 4 hosts, the smoke test's fabric
)

func buildTopo(size closSize) (*topo.Topology, error) {
	cfg := topo.ClosConfig{Pods: 4, ToRsPerPod: 8, AggsPerPod: 2, Spines: 4, HostsPerToR: 8, RNICsPerHost: 1}
	switch size {
	case clos64:
		cfg.ToRsPerPod = 2
	case clos16:
		cfg.Pods, cfg.ToRsPerPod, cfg.HostsPerToR = 2, 2, 4
	}
	return topo.BuildClos(cfg)
}

// podHosts is how many hosts pod 0 holds: the service job's size.
func podHosts(tp *topo.Topology) int {
	n := 0
	for _, h := range tp.Hosts {
		if h.Pod == 0 {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------
// Planted faults (shared by the live captures and the simulated runs)

// faultKind is the benchmark's fault vocabulary; each maps onto one
// faultgen cause and one expected analyzer problem class.
type faultKind int

const (
	faultRNICDown faultKind = iota
	faultLinkDrop
	faultLinkFlap
	faultHostDown
	faultPFC
)

func (k faultKind) String() string {
	return [...]string{"rnic-down", "link-drop", "link-flap", "host-down", "pfc-congestion"}[k]
}

// plantedFault is ground truth for one injected fault.
type plantedFault struct {
	Kind faultKind
	Dev  string // rnic-down, pfc-congestion
	Host string // host-down (and the host owning Dev)
	Link int    // link-drop, link-flap: the directed link injected on
	// HostDevs are a downed host's RNICs: the window in which the host
	// goes down or comes back still has its uploads, so the analyzer
	// reports those timeouts as RNIC problems before (and after) the
	// host-down verdict. Both are this fault's doing.
	HostDevs map[string]bool
	// Injected/Cleared are virtual times (Cleared 0 while active).
	Injected, Cleared vtime
	// Detected is the virtual time of the matching open event (0: never),
	// DetectedAs the incident entity it opened on.
	Detected   vtime
	DetectedAs string

	active *faultgen.ActiveFault
}

// where names the fault's target for the report.
func (f *plantedFault) where() string {
	switch {
	case f.Dev != "":
		return f.Dev
	case f.Host != "":
		return f.Host
	}
	return fmt.Sprintf("link %d", f.Link)
}

// class is the analyzer problem class the fault must surface as.
func (f *plantedFault) class() string {
	switch f.Kind {
	case faultRNICDown:
		return analyzer.ProblemRNIC.String()
	case faultHostDown:
		return analyzer.ProblemHostDown.String()
	case faultPFC:
		return analyzer.ProblemHighRTT.String()
	default:
		return analyzer.ProblemSwitchLink.String()
	}
}

// faultPicker draws fault targets from a topology with the workload's
// seeded source, so one seed always plants the same faults.
type faultPicker struct {
	tp     *topo.Topology
	hosts  []topo.HostID
	fabric []topo.LinkID // ToR→Agg uplinks: every one carries inter-ToR probes
}

// newFaultPicker restricts targets to pods >= minPod (the service job
// occupies pod 0; a fault inside its network would drag service flows and
// their RTTs with it, and ground truth would stop being one location).
func newFaultPicker(tp *topo.Topology, minPod int) *faultPicker {
	p := &faultPicker{tp: tp}
	for _, h := range tp.AllHosts() {
		if tp.Hosts[h].Pod >= minPod {
			p.hosts = append(p.hosts, h)
		}
	}
	for _, l := range tp.Links {
		from, okF := tp.Switches[l.From]
		to, okT := tp.Switches[l.To]
		if okF && okT && from.Tier == topo.TierToR && to.Tier == topo.TierAgg && from.Pod >= minPod {
			p.fabric = append(p.fabric, l.ID)
		}
	}
	return p
}

// pick fills in a target for kind. avoid holds hosts that must not be
// chosen again: each fault keeps its own incident key.
func (p *faultPicker) pick(kind faultKind, r *rng, avoid map[string]bool) *plantedFault {
	f := &plantedFault{Kind: kind, Link: -1}
	switch kind {
	case faultLinkDrop, faultLinkFlap:
		var l topo.LinkID
		for {
			l = p.fabric[r.intn(len(p.fabric))]
			if key := fmt.Sprintf("cable:%d", p.tp.Links[l].Cable); !avoid[key] {
				avoid[key] = true
				break
			}
		}
		f.Link = int(l)
	default:
		for {
			h := p.hosts[r.intn(len(p.hosts))]
			if avoid[string(h)] {
				continue
			}
			avoid[string(h)] = true
			f.Host = string(h)
			if kind == faultHostDown {
				f.HostDevs = map[string]bool{}
				for _, d := range p.tp.Hosts[h].RNICs {
					f.HostDevs[string(d)] = true
				}
			} else {
				f.Dev = string(p.tp.Hosts[h].RNICs[0])
			}
			break
		}
	}
	return f
}

func (f *plantedFault) spec() faultgen.Fault {
	switch f.Kind {
	case faultRNICDown:
		return faultgen.Fault{Cause: faultgen.RNICDown, Dev: topo.DeviceID(f.Dev)}
	case faultLinkDrop:
		return faultgen.Fault{Cause: faultgen.PacketCorruption, Link: topo.LinkID(f.Link), Severity: 0.5}
	case faultLinkFlap:
		return faultgen.Fault{Cause: faultgen.FlappingPort, Link: topo.LinkID(f.Link)}
	case faultHostDown:
		return faultgen.Fault{Cause: faultgen.HostDown, Host: topo.HostID(f.Host)}
	default:
		return faultgen.Fault{Cause: faultgen.PCIeDowngraded, Dev: topo.DeviceID(f.Dev)}
	}
}

// activeAt reports whether an incident transition at t can be this
// fault's: from injection until two windows after it was cleared (the
// window it clears in still closes with its timeouts).
func (f *plantedFault) activeAt(t vtime) bool {
	return t >= f.Injected && f.Injected > 0 && (f.Cleared == 0 || t <= f.Cleared+2*windowLen)
}

// at reports whether a (class, device, host, links) location is this
// fault's ground truth. A link fault is located when the analyzer points at
// a link of one of the true link's two switches: a switch-link problem with
// such a link among the tied candidates (the true cable in either direction,
// or a cable next to it), or an RNIC problem on a NIC of the true link's ToR
// (footnote 4 renames a top-voted host cable). Algorithm 1 votes over the
// known parts of the failed probes' paths, and the agents know the ACK path
// of fewer than half of the probes that timed out; on about one seed in
// fifty a neighbouring cable outvotes the true one by a few votes
// (README.md, findings). The benchmark has to pass on every seed, so it
// holds the analyzer to the switch, not to the cable.
func (f *plantedFault) at(tp *topo.Topology, class, dev, host string, links []topo.LinkID) bool {
	switch f.Kind {
	case faultHostDown:
		return (class == analyzer.ProblemHostDown.String() && host == f.Host) ||
			(class == analyzer.ProblemRNIC.String() && f.HostDevs[dev])
	case faultRNICDown, faultPFC:
		return class == f.class() && dev == f.Dev
	}
	truth := tp.Links[f.Link]
	near := func(sw topo.DeviceID) bool { return sw == truth.From || sw == truth.To }
	switch class {
	case analyzer.ProblemSwitchLink.String():
		for _, l := range links {
			if l >= 0 && int(l) < len(tp.Links) && (near(tp.Links[l].From) || near(tp.Links[l].To)) {
				return true
			}
		}
	case analyzer.ProblemRNIC.String():
		r, ok := tp.RNICs[topo.DeviceID(dev)]
		return ok && near(r.ToR)
	}
	return false
}

// matches reports whether an incident key (entity, class) is this
// fault's ground truth.
func (f *plantedFault) matches(tp *topo.Topology, entity, class string) bool {
	kind, id, _ := strings.Cut(entity, ":")
	switch kind {
	case "dev":
		return f.at(tp, class, id, "", nil)
	case "host":
		return f.at(tp, class, "", id, nil)
	case "link":
		l, err := strconv.Atoi(id)
		return err == nil && f.at(tp, class, "", "", []topo.LinkID{topo.LinkID(l)})
	}
	return false
}

// explains reports whether a problem of window rep is attributable to
// this fault.
func (f *plantedFault) explains(tp *topo.Topology, rep windowReport, p analyzer.Problem) bool {
	if !f.activeAt(rep.End) {
		return false
	}
	return f.at(tp, p.Kind.String(), string(p.Device), string(p.Host), append([]topo.LinkID{p.Link}, p.Links...))
}

// ---------------------------------------------------------------------
// Simulated spine: core.Cluster with a console attached

type simStack struct {
	c       *core.Cluster
	tp      *topo.Topology
	console *api.Server
	inj     *faultgen.Injector
	job     *service.Job
	tr      *tracer

	winSub, incSub *api.Subscriber

	// closeSpan is the open core.window_close span: the window-close event
	// up to the OnWindow hook is DrainAll+Tick+Observe.
	closeSpan int32
	reports   []windowReport
}

// newSimStack builds the default-config serial-engine cluster of the sim
// workloads, attaches the console the way examples/console does
// (NewConsole + OnWindow + AlertNotifier) and starts the agents.
func newSimStack(size closSize, seed int64, tr *tracer) (*simStack, error) {
	tp, err := buildTopo(size)
	if err != nil {
		return nil, err
	}
	c, err := core.NewCluster(core.Config{Topology: tp, Seed: seed})
	if err != nil {
		return nil, err
	}
	s := &simStack{c: c, tp: tp, tr: tr, closeSpan: -1, inj: faultgen.NewInjector(c, seed)}
	prefillHistory(c.TSDB, seed, simHistoryStart-windowLen, nil)
	if tr != nil {
		c.Analyzer.SetMetricSink(metricSinkSpan{tr, c.TSDB})
	}
	s.console = rpingmesh.NewConsole(c, nil, api.Config{Addr: "127.0.0.1:0"})
	c.Alerts.AddNotifier(s.console.AlertNotifier())
	c.OnWindow(func(rep windowReport) {
		s.tr.end(s.closeSpan, 0)
		s.closeSpan = -1
		s.reports = append(s.reports, rep)
		s.tr.sync(spanPublish, 1, func() { s.console.PublishWindow(rep) })
	})
	if err := s.console.Start(); err != nil {
		return nil, err
	}
	s.winSub = s.console.WindowStream().Subscribe("bench-window")
	s.incSub = s.console.IncidentStream().Subscribe("bench-incident")
	c.StartAgents()
	return s, nil
}

func (s *simStack) run(d vtime) { s.c.Run(d) }
func (s *simStack) now() vtime  { return s.c.Eng.Now() }

// closeWindow runs the last instant of a window on its own: the
// window-close event (DrainAll, Tick, Observe, then the hooks) fires in
// it, and the hook ends the core.window_close span where the cluster's
// own work stops and the console's starts.
func (s *simStack) closeWindow(eps vtime) {
	s.closeSpan = s.tr.begin(spanCoreClose)
	s.c.Run(eps)
	s.tr.end(s.closeSpan, 0) // no-op when the hook already ended it
	s.closeSpan = -1
}

// at schedules fn on the cluster's clock.
func (s *simStack) at(t vtime, fn func()) { s.c.Eng.At(t, fn) }

func (s *simStack) popWindow() (streamEvent, bool)   { return s.winSub.TryNext() }
func (s *simStack) popIncident() (streamEvent, bool) { return s.incSub.TryNext() }
func (s *simStack) httpAddr() string                 { return s.console.Addr() }
func (s *simStack) hostNames() []string              { return hostNames(s.tp) }

// startJob runs an AllReduce training job over the hosts of pod 0 so the
// agents' service tracing has live 5-tuples to copy.
func (s *simStack) startJob(seed int64) ([]string, error) {
	n := podHosts(s.tp)
	hosts := s.tp.AllHosts()[:n]
	job, err := s.c.NewJob(service.Config{
		Pattern: service.AllReduce, ComputeTime: sim.Second,
		DemandGbps: 200, VolumePerFlowGB: 4, Seed: seed,
	}, hosts...)
	if err != nil {
		return nil, err
	}
	if err := job.Start(); err != nil {
		return nil, err
	}
	s.job = job
	names := make([]string, n)
	for i, h := range hosts {
		names[i] = string(h)
	}
	return names, nil
}

func (s *simStack) inject(f *plantedFault) error {
	af, err := s.inj.Inject(f.spec())
	if err != nil {
		return err
	}
	f.active = af
	f.Injected = af.Injected
	return nil
}

func (s *simStack) clear(f *plantedFault) {
	s.inj.Clear(f.active)
	f.Cleared = f.active.Cleared
}

// simCounters are the cumulative layer counts read through the layers'
// own public accessors.
type simCounters struct {
	events                            uint64
	packets, drops                    int64
	probes, timeouts, uploads, traces int64
}

func (s *simStack) counters() simCounters {
	var k simCounters
	k.events = s.c.Eng.Fired()
	for _, l := range s.tp.Links {
		st := s.c.Net.Stats(l.ID)
		k.packets += st.Delivered
		for _, n := range st.Drops {
			k.drops += n
			k.packets += n
		}
	}
	for _, h := range s.c.Hosts {
		a := h.Agent.Stats
		k.probes += a.ProbesSent
		k.timeouts += a.Timeouts
		k.uploads += a.Uploads
		k.traces += a.Traces
	}
	return k
}

// keptUploads collects copies of the uploads the ingest tier delivers
// until stop — one warm-up window's worth, for the wire probe.
type keptUploads struct {
	sink    *captureSink
	batches []*recordBatch
}

func (s *simStack) keepUploads() *keptUploads {
	k := &keptUploads{sink: &captureSink{cur: &capture{}}}
	s.c.Ingest.SubscribeRecords(k.sink)
	return k
}

func (k *keptUploads) stop() {
	k.batches = k.sink.cur.batches
	k.sink.cur = nil
}

// accounting is the part of a stack's own bookkeeping both spines are
// held to: pipeline conservation, store ingest, hub conservation.
type accounting struct {
	pipe pipeline.Stats
	tsdb tsdb.Stats
	hubs []api.HubStats
}

func hubStats(console *api.Server) []api.HubStats {
	return []api.HubStats{console.WindowStream().Stats(), console.IncidentStream().Stats()}
}

// simSnapshot is the simulated stack's accounting, for the check.
type simSnapshot struct {
	accounting
	pending int // records delivered but not yet ticked
	open    int // incidents still open or acked
}

func (s *simStack) snapshot() simSnapshot {
	open := alert.StateOpen
	acked := alert.StateAcked
	return simSnapshot{
		accounting: accounting{pipe: s.c.Ingest.Stats(), tsdb: s.c.TSDB.Stats(), hubs: hubStats(s.console)},
		pending:    s.c.Analyzer.PendingResults(),
		open: len(s.c.Alerts.Incidents(alert.Filter{State: &open})) +
			len(s.c.Alerts.Incidents(alert.Filter{State: &acked})),
	}
}

func (s *simStack) storeProbe() (rangeNS, quantNS []int64) {
	return storeProbe(s.c.TSDB, s.tp, simHistoryStart)
}

func (s *simStack) close() {
	if s.job != nil {
		s.job.Stop()
	}
	_ = s.console.Shutdown(context.Background())
}

// ---------------------------------------------------------------------
// Capture: real agent RecordBatches for the live spine to replay

// capture is one 20 s window of uploads exactly as the simulated agents
// built them, in upload order.
type capture struct {
	batches []*recordBatch
	offset  []vtime // each batch's Sent relative to the window start
	records int
	fault   *plantedFault // nil: healthy window
	// faultOffset is how far into the window the fault was injected.
	faultOffset vtime
	// plan splits the batches over the upload connections (batch indexes
	// per connection, host-sticky); the live harness fills it in.
	plan [][]int
}

// captureSet is what one live set-up replays: a healthy window, the
// faulty ones, the fabric they were taken on and the RNIC registry the
// agents built.
type captureSet struct {
	tp      *topo.Topology
	healthy *capture
	faulty  []*capture
	infos   [][]proto.RNICInfo // one Register call per host
}

func (set *captureSet) hostNames() []string { return hostNames(set.tp) }

func hostNames(tp *topo.Topology) []string {
	hosts := tp.AllHosts()
	out := make([]string, len(hosts))
	for i, h := range hosts {
		out[i] = string(h)
	}
	return out
}

type captureSink struct{ cur *capture }

// UploadRecords copies the borrowed batch (the pipeline's delivery
// contract) into the window being captured.
func (cs *captureSink) UploadRecords(b *recordBatch) {
	if cs.cur == nil {
		return
	}
	cp := &recordBatch{Host: b.Host, Sent: b.Sent, Seq: b.Seq}
	cp.AppendFrom(&b.Records)
	cs.cur.batches = append(cs.cur.batches, cp)
	cs.cur.records += cp.Len()
}

// faultJitterMS bounds the seeded jitter added to every planted fault's
// injection time: enough that detect_virtual_s differs from seed to seed,
// small enough that the seeds spread it by under a third of its 1 % bound.
const faultJitterMS = 60

// captureWindows simulates the fabric for 5 s of warm-up, one healthy
// window and one window per fault kind. Each fault is injected 1 s (plus
// jitter) into its window and cleared as the window ends, with a 5 s gap
// before the next capture so its last probes time out in nobody's
// window.
func captureWindows(size closSize, seed int64, kinds []faultKind, r *rng) (*captureSet, error) {
	tp, err := buildTopo(size)
	if err != nil {
		return nil, err
	}
	c, err := core.NewCluster(core.Config{Topology: tp, Seed: seed})
	if err != nil {
		return nil, err
	}
	sink := &captureSink{}
	c.Ingest.SubscribeRecords(sink)
	c.StartAgents()
	c.Run(5 * sim.Second)

	inj := faultgen.NewInjector(c, seed)
	take := func(f *plantedFault) (*capture, error) {
		w := &capture{fault: f}
		start := c.Eng.Now()
		sink.cur = w
		if f != nil {
			w.faultOffset = vtime(1000+r.intn(faultJitterMS)) * sim.Millisecond
			c.Run(w.faultOffset)
			af, err := inj.Inject(f.spec())
			if err != nil {
				return nil, fmt.Errorf("capture: inject %v: %w", f.Kind, err)
			}
			defer inj.Clear(af)
		}
		c.Run(start + windowLen - c.Eng.Now())
		sink.cur = nil
		for _, b := range w.batches {
			w.offset = append(w.offset, b.Sent-start)
		}
		return w, nil
	}
	set := &captureSet{tp: tp}
	if set.healthy, err = take(nil); err != nil {
		return nil, err
	}
	picker := newFaultPicker(tp, 0)
	avoid := map[string]bool{}
	for _, k := range kinds {
		w, err := take(picker.pick(k, r, avoid))
		if err != nil {
			return nil, err
		}
		set.faulty = append(set.faulty, w)
		c.Run(5 * sim.Second)
	}
	for _, h := range tp.AllHosts() {
		var infos []proto.RNICInfo
		for _, dev := range tp.Hosts[h].RNICs {
			if info, ok := c.Controller.Lookup(tp.RNICs[dev].IP); ok {
				infos = append(infos, info)
			}
		}
		set.infos = append(set.infos, infos)
	}
	return set, nil
}

// ---------------------------------------------------------------------
// Live spine: the daemon's wiring, on a virtual clock

// aggregator mirrors cmd/rpmesh-controller's running tally sink (that
// one lives in package main and cannot be imported): counts plus a
// per-interval RTT distribution, fed from the boxed delivery path.
type aggregator struct {
	mu                         sync.Mutex
	batches, results, timeouts uint64
	rtt                        *metrics.Distribution
}

func (a *aggregator) Upload(b uploadBatch) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.batches++
	a.results += uint64(len(b.Results))
	for i := range b.Results {
		if b.Results[i].Timeout {
			a.timeouts++
			continue
		}
		a.rtt.Add(float64(b.Results[i].NetworkRTT) / float64(sim.Microsecond))
	}
}

// analyzerTier is the daemon's boxed analyzer sink. The daemon re-stamps
// Sent with its wall clock; here the generator already stamped the
// virtual clock the analyzer runs on, so reports are deterministic.
type analyzerTier struct{ an *analyzer.Analyzer }

func (t analyzerTier) Upload(b uploadBatch) { t.an.Upload(b) }

// countingListener counts bytes both ways on every accepted connection —
// the upload sockets' wire footprint.
type countingListener struct {
	net.Listener
	in, out atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.out.Add(int64(n))
	return n, err
}

type liveStack struct {
	tp       *topo.Topology
	ctrl     *controller.Controller
	aeng     *sim.Engine
	an       *analyzer.Analyzer
	db       *tsdb.DB
	follower *tsdb.Follower
	pipe     *pipeline.Pipeline
	alerts   *alert.Engine
	ln       *countingListener
	srv      *wire.Server
	console  *api.Server
	clients  []*wire.Client
	tr       *tracer

	winSub, incSub *api.Subscriber
	fanout         []subscriber // extra in-process window readers
	reports        []windowReport
}

// historyPoints is how many past windows of analyzer series the store
// is pre-filled with, so console range reads scan a full raw ring (the
// tsdb default RawCapacity) instead of a freshly started daemon's.
const historyPoints = 2048

// analyzerSeries are the series analyzer.publish writes each window.
var analyzerSeries = []string{
	"cluster.probes", "cluster.rtt.p50", "cluster.rtt.p99",
	"cluster.drop.rnic_rate", "cluster.drop.switch_rate",
	"cluster.responder.p99", "service.probes", "service.rtt.p50",
	"service.rtt.p99", "noise.hostdown", "noise.qpn_reset", "noise.cpu",
	"problems.count",
}

// liveEpoch is the virtual time of live window 0's start: just past the
// pre-filled history. The simulated cluster's clock starts at 0, so its
// history sits at negative times, from simHistoryStart.
const (
	liveEpoch       = vtime(historyPoints) * windowLen
	simHistoryStart = -liveEpoch
)

// prefillHistory appends an 11-hour-old deployment's worth of analyzer
// series — one seeded point per series per past window, the first window
// ending at start+20 s — calling each(i) after window i.
func prefillHistory(db *tsdb.DB, seed int64, start vtime, each func(i int)) {
	hr := newRNG(uint64(seed) ^ 0x9e3779b97f4a7c15)
	for i := 0; i < historyPoints; i++ {
		t := start + vtime(i+1)*windowLen
		for _, name := range analyzerSeries {
			db.Append(name, t, float64(hr.intn(1_000_000))/1000)
		}
		if each != nil {
			each(i)
		}
	}
}

// newLiveStack wires RecordBatch → wire (loopback TCP) → pipeline
// (concurrent) → {aggregator, analyzer} + tsdb → alert → api exactly as
// cmd/rpmesh-controller/main.go does, with conns upload connections and
// fan extra in-process window-stream subscribers.
func newLiveStack(set *captureSet, seed int64, conns, fan int, tr *tracer) (*liveStack, error) {
	s := &liveStack{tp: set.tp, tr: tr}
	s.ctrl = controller.New(sim.New(seed), set.tp, controller.Config{})
	s.aeng = sim.New(0)
	s.aeng.RunUntil(liveEpoch)
	s.an = analyzer.New(s.aeng, set.tp, s.ctrl, analyzer.Config{Window: windowLen, Workers: runtime.GOMAXPROCS(0)})

	s.db = tsdb.Open(tsdb.Config{JournalCapacity: 1 << 16})
	s.follower = tsdb.NewFollower(s.db)
	// Journalled in slices the follower's delta replay can hold.
	prefillHistory(s.db, seed, 0, func(i int) {
		if i%1024 == 1023 {
			s.follower.CatchUp()
		}
	})
	s.follower.CatchUp()

	var msink metricSink = s.db
	var agg uploadSink = &aggregator{rtt: metrics.NewDistribution()}
	var tier uploadSink = analyzerTier{s.an}
	var store recordSink = s.db
	if tr != nil {
		msink = metricSinkSpan{tr, msink}
		agg = deliverySpan{tr, spanAggregator, agg}
		tier = deliverySpan{tr, spanAnalyzerUpload, tier}
		store = recordSinkSpan{tr, store}
	}
	s.an.SetMetricSink(msink)
	s.pipe = pipeline.New(pipeline.Config{Partitions: 4, Capacity: 256, Policy: pipeline.Block}, agg, tier)
	s.pipe.SubscribeRecords(store)
	s.pipe.Start()

	s.alerts = alert.NewEngine(alert.Config{})
	s.alerts.AddNotifier(alert.LogNotifier{Logger: log.New(io.Discard, "alert: ", 0)})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.ln = &countingListener{Listener: ln}
	var front uploadSink = s.pipe
	if tr != nil {
		front = enqueueSpan{tr, front}
	}
	s.srv = wire.Serve(s.ln, s.ctrl, front)

	s.console = api.New(api.Backend{
		Windows: s.an, TSDB: s.follower, Pipeline: s.pipe, Alerts: s.alerts,
		Admission: &api.Admission{Pipeline: s.pipe, Follower: s.follower},
	}, api.Config{Addr: "127.0.0.1:0"})
	s.alerts.AddNotifier(s.console.AlertNotifier())
	if err := s.console.Start(); err != nil {
		return nil, err
	}
	s.winSub = s.console.WindowStream().Subscribe("bench-window")
	s.incSub = s.console.IncidentStream().Subscribe("bench-incident")
	for i := 0; i < fan; i++ {
		s.fanout = append(s.fanout, s.console.WindowStream().Subscribe(fmt.Sprintf("bench-fan-%d", i)))
	}

	for i := 0; i < conns; i++ {
		cli, err := wire.Dial(s.srv.Addr())
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, cli)
	}
	// The agents' registrations, over the control path they would use.
	for _, infos := range set.infos {
		s.clients[0].Register(infos)
	}
	if err := s.clients[0].Err(); err != nil {
		return nil, fmt.Errorf("register: %w", err)
	}
	return s, nil
}

// upload boxes one columnar batch and ships it over connection conn:
// today's deployed path (RecordBatch → ToUploadBatch → JSON frame → one
// round trip). It reports the client's transport error, if any.
func (s *liveStack) upload(conn int, b *recordBatch) error {
	if !s.tr.on() {
		s.clients[conn].Upload(b.ToUploadBatch())
		return s.clients[conn].Err()
	}
	t0 := nowNS()
	ub := b.ToUploadBatch()
	t1 := nowNS()
	s.clients[conn].Upload(ub)
	t2 := nowNS()
	// Connection 0 is driven by the harness goroutine; the others are
	// async to the window budget.
	s.tr.record(spanBox, conn != 0, b.Len(), t0, t1)
	s.tr.record(spanUpload, conn != 0, b.Len(), t1, t2)
	return s.clients[conn].Err()
}

func (s *liveStack) popWindow() (streamEvent, bool)   { return s.winSub.TryNext() }
func (s *liveStack) popIncident() (streamEvent, bool) { return s.incSub.TryNext() }
func (s *liveStack) httpAddr() string                 { return s.console.Addr() }
func (s *liveStack) followerLag() uint64              { return s.follower.Lag() }
func (s *liveStack) wireBytes() int64                 { return s.ln.in.Load() + s.ln.out.Load() }

func (s *liveStack) storeProbe() (rangeNS, quantNS []int64) {
	return storeProbe(s.follower, s.tp, 0)
}

// delivered is the pipeline's count of probe results handed to every
// sink: the drain barrier the window close waits on.
func (s *liveStack) delivered() uint64 { return s.pipe.Stats().ResultsDelivered }

// closeWindow is the daemon's anTick arm: advance the analyzer clock to
// the window end, Tick, Observe, CatchUp, PublishWindow.
func (s *liveStack) closeWindow(end vtime) windowReport {
	s.aeng.RunUntil(end)
	var rep windowReport
	s.tr.sync(spanTick, 0, func() { rep = s.an.Tick() })
	s.tr.sync(spanObserve, len(rep.Problems), func() { s.alerts.Observe(rep) })
	s.tr.sync(spanCatchUp, 0, func() { s.follower.CatchUp() })
	s.tr.sync(spanPublish, 1, func() { s.console.PublishWindow(rep) })
	s.reports = append(s.reports, rep)
	return rep
}

// controlProbe times the control path off the hot path: one Pinglists
// round trip over the wire and one in-process Pinglists call per host.
func (s *liveStack) controlProbe() (wireNS, localNS []int64) {
	for _, h := range s.tp.AllHosts() {
		t0 := nowNS()
		lists := s.clients[0].Pinglists(h)
		t1 := nowNS()
		_ = s.ctrl.Pinglists(h)
		t2 := nowNS()
		if len(lists) == 0 {
			continue
		}
		wireNS = append(wireNS, t1-t0)
		localNS = append(localNS, t2-t1)
	}
	return wireNS, localNS
}

// codecProbe runs the flat binary codec over the same batches, off the
// hot path: what the wire would carry after ROADMAP item 2.
func codecProbe(batches []*recordBatch) (ns int64, bytes, records int, err error) {
	t0 := nowNS()
	for _, b := range batches {
		data, merr := b.MarshalBinary()
		if merr != nil {
			return 0, 0, 0, merr
		}
		var back recordBatch
		if uerr := back.UnmarshalBinary(data); uerr != nil {
			return 0, 0, 0, uerr
		}
		if back.Len() != b.Len() {
			return 0, 0, 0, fmt.Errorf("codec round trip lost records: %d != %d", back.Len(), b.Len())
		}
		bytes += len(data)
		records += b.Len()
	}
	return nowNS() - t0, bytes, records, nil
}

// liveSnapshot is the live stack's accounting, for the check and the
// per-layer list.
type liveSnapshot struct {
	accounting
	followLag  uint64
	shed429    uint64
	registered int
}

func (s *liveStack) snapshot() liveSnapshot {
	return liveSnapshot{
		accounting: accounting{pipe: s.pipe.Stats(), tsdb: s.db.Stats(), hubs: hubStats(s.console)},
		followLag:  s.follower.Lag(),
		shed429:    s.console.ShedRequests(),
		registered: s.ctrl.Registered(),
	}
}

func (s *liveStack) close() {
	for _, c := range s.clients {
		_ = c.Close()
	}
	_ = s.srv.Close()
	s.pipe.Stop()
	_ = s.console.Shutdown(context.Background())
}

// ---------------------------------------------------------------------
// Traced run: the wrappers that stand between the layers. They live here
// because their method sets are the internal sink interfaces.

// enqueueSpan sits where wire.Serve hands uploads to the pipeline.
type enqueueSpan struct {
	t     *tracer
	inner uploadSink
}

func (w enqueueSpan) Upload(b uploadBatch) {
	if !w.t.on() {
		w.inner.Upload(b)
		return
	}
	t0 := nowNS()
	w.t.markEnqueue(b.Seq, t0)
	w.inner.Upload(b)
	w.t.record(spanEnqueue, true, len(b.Results), t0, nowNS())
}

// recordSinkSpan is the first sink every delivery reaches (record sinks
// run before boxed ones), so it also closes the queue wait.
type recordSinkSpan struct {
	t     *tracer
	inner recordSink
}

func (w recordSinkSpan) UploadRecords(b *recordBatch) {
	if !w.t.on() {
		w.inner.UploadRecords(b)
		return
	}
	t0 := nowNS()
	if at := w.t.enqueuedAt(b.Seq); at > 0 && at <= t0 {
		w.t.record(spanQueueWait, true, b.Len(), at, t0)
	}
	w.inner.UploadRecords(b)
	w.t.record(spanTSDBIngest, true, b.Len(), t0, nowNS())
}

type deliverySpan struct {
	t     *tracer
	name  spanName
	inner uploadSink
}

func (w deliverySpan) Upload(b uploadBatch) {
	if !w.t.on() {
		w.inner.Upload(b)
		return
	}
	t0 := nowNS()
	w.inner.Upload(b)
	w.t.record(w.name, true, len(b.Results), t0, nowNS())
}

// metricSinkSpan times the analyzer's per-window series appends; they
// run inside Tick on the harness (or engine) goroutine.
type metricSinkSpan struct {
	t     *tracer
	inner metricSink
}

func (w metricSinkSpan) Append(series string, at vtime, v float64) {
	if !w.t.on() {
		w.inner.Append(series, at, v)
		return
	}
	t0 := nowNS()
	w.inner.Append(series, at, v)
	w.t.record(spanTSDBAppend, false, 1, t0, nowNS())
}

// ---------------------------------------------------------------------
// Off-hot-path probes and shared read-side helpers

// discardSink is the wire probe's null analyzer.
type discardSink struct{}

func (discardSink) Upload(uploadBatch) {}

// wireProbe ships batches over one loopback wire connection into a null
// sink and counts the bytes both ways: wire_bytes_per_record for a
// workload whose own records never cross a socket.
func wireProbe(batches []*recordBatch) (bytes int64, records, errs int, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, err
	}
	cl := &countingListener{Listener: ln}
	srv := wire.Serve(cl, nil, discardSink{})
	defer srv.Close()
	cli, err := wire.Dial(srv.Addr())
	if err != nil {
		return 0, 0, 0, err
	}
	defer cli.Close()
	for _, b := range batches {
		cli.Upload(b.ToUploadBatch())
		if cli.Err() != nil {
			errs++
		}
		records += b.Len()
	}
	if records == 0 {
		return 0, 0, 0, fmt.Errorf("no records kept for the wire probe")
	}
	return cl.in.Load() + cl.out.Load(), records, errs, nil
}

// seriesStore is the read side both *tsdb.DB and *tsdb.Follower offer.
type seriesStore interface {
	Range(name string, from, to vtime) []tsdb.Point
	Quantile(name string, from, to vtime, q float64) (float64, bool)
}

// storeProbe times the store's own Range and Quantile, without HTTP:
// every analyzer series over full retention, and the per-host sketch
// quantile of sixteen hosts.
func storeProbe(st seriesStore, tp *topo.Topology, from vtime) (rangeNS, quantNS []int64) {
	const forever = vtime(1) << 62
	for _, name := range analyzerSeries {
		t0 := nowNS()
		_ = st.Range(name, from, forever)
		rangeNS = append(rangeNS, nowNS()-t0)
	}
	for i, h := range tp.AllHosts() {
		if i%max(len(tp.Hosts)/16, 1) != 0 {
			continue
		}
		t0 := nowNS()
		_, _ = st.Quantile("ingest.rtt."+string(h), from, forever, 0.99)
		quantNS = append(quantNS, nowNS()-t0)
	}
	return rangeNS, quantNS
}

func storeMB(st tsdb.Stats) float64 {
	return float64(st.SketchBytes+st.CountMinBytes+16*st.RetainedPoints) / (1 << 20)
}

func (a accounting) tsdbMB() float64 { return storeMB(a.tsdb) }

// hubLoss sums what the stream hubs shed and whom they evicted.
func (a accounting) hubLoss() (shed, evicted uint64) {
	for _, h := range a.hubs {
		shed += h.Shed
		evicted += h.Evictions
	}
	return shed, evicted
}

// hubConserved checks the hub's per-subscriber conservation law,
// published = delivered + shed + queued, over live and departed readers.
func hubConserved(hs api.HubStats) error {
	for _, ss := range append(append([]api.SubscriberStats(nil), hs.Subs...), hs.Departed...) {
		if ss.Published != ss.Delivered+ss.Shed+uint64(ss.Queued) {
			return fmt.Errorf("hub subscriber %s: published=%d != delivered=%d + shed=%d + queued=%d",
				ss.Name, ss.Published, ss.Delivered, ss.Shed, ss.Queued)
		}
	}
	return nil
}

// problemLine renders one problem for the fingerprint and the report,
// using only order-independent fields.
func problemLine(p analyzer.Problem) string {
	links := make([]int, len(p.Links))
	for i, l := range p.Links {
		links[i] = int(l)
	}
	sort.Ints(links)
	return fmt.Sprintf("%s|%s|%s|%s|%d|%v|%d", p.Kind, p.Priority, p.Device, p.Host, p.Link, links, p.Evidence)
}

// reportDigest flattens the order-independent part of a window report:
// concurrent ingest reorders records inside a window, which moves
// reservoir-sampled quantiles but never counts or problems.
func reportDigest(rep windowReport) string {
	s := fmt.Sprintf("w%d[%d,%d) c=%d/%d/%d/%d s=%d/%d/%d/%d n=%d/%d/%d",
		rep.Index, rep.Start, rep.End,
		rep.Cluster.Probes, rep.Cluster.RNICDrops, rep.Cluster.SwitchDrops, rep.Cluster.NoiseDrops,
		rep.Service.Probes, rep.Service.RNICDrops, rep.Service.SwitchDrops, rep.Service.NoiseDrops,
		rep.HostDownTimeouts, rep.QPNResetTimeouts, rep.CPUNoiseTimeouts)
	for _, p := range rep.Problems {
		s += " {" + problemLine(p) + "}"
	}
	return s
}

// unexplained lists the window's problems no planted fault accounts for.
func unexplained(tp *topo.Topology, rep windowReport, faults []*plantedFault) []string {
	var out []string
	for _, p := range rep.Problems {
		ok := false
		for _, f := range faults {
			if f.explains(tp, rep, p) {
				ok = true
				break
			}
		}
		if !ok {
			out = append(out, fmt.Sprintf("w%d %s", rep.Index, problemLine(p)))
		}
	}
	return out
}
