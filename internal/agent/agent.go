// Package agent implements the R-Pingmesh Agent (§4.2): the per-host
// service that probes the cluster with UD QPs, responds to probes from
// other Agents, monitors service-flow 5-tuples through the verbs tracer,
// traces probe paths, and uploads everything to the Analyzer.
//
// Per RNIC the Agent runs the paper's four logical workers — ToR-mesh
// probing, inter-ToR probing, service-tracing probing, and responding —
// as event-loop tickers and completion handlers.
//
// The measurement protocol is Figure 4's, executed with nothing but CQE
// timestamps and two application timestamps:
//
//	① prober app posts the probe            (host clock)
//	② prober RNIC puts it on the wire       (send CQE, device clock)
//	③ responder RNIC receives it            (recv CQE, device clock)
//	④ responder RNIC sends ACK1             (send CQE, device clock)
//	⑤ prober RNIC receives ACK1            (recv CQE, device clock)
//	⑥ prober app processes ACK1            (host clock)
//
// ACK2 carries ④-③ (the responder processing delay) in its payload, since
// the responder only learns ④ after ACK1 is on the wire. The prober then
// computes NetworkRTT = (⑤-②)-(④-③) and ProberDelay = (⑥-①)-(⑤-②),
// with no clock synchronized to any other.
package agent

import (
	"fmt"
	"math/rand"
	"net/netip"

	"rpingmesh/internal/ecmp"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/trace"
	"rpingmesh/internal/verbs"
)

// Config carries the Agent's running parameters; zero values take the
// paper's deployment settings (§5).
type Config struct {
	ProbeTimeout         sim.Time // 500 ms
	UploadInterval       sim.Time // 5 s
	PinglistRefresh      sim.Time // 5 min
	ServiceProbeInterval sim.Time // 10 ms
	CommInfoRefresh      sim.Time // 5 min
	// PathTraceInterval is how often each probed tuple's path (and its
	// ACK's path) is re-traced.
	PathTraceInterval sim.Time // 10 s

	// OnDemandTracing disables continuous path tracing and traces only
	// when a probe times out. The paper rejects this design (§4.2.3): in
	// a persistent failure the trace stops at the dead hop (or the
	// replayed packets rehash elsewhere), so localization starves. Kept
	// for the ablation benchmark.
	OnDemandTracing bool

	// OneWayIntraHost enables §7.4's rail-optimized refinement: when a
	// probe targets another RNIC of the SAME host, both QPs belong to
	// this Agent, so the responder need not send ACKs — the Agent
	// observes the receive CQE directly, detecting one-way timeouts and
	// measuring one-way delay against its own calibration of the two
	// device clocks. core enables it automatically on rail topologies.
	OneWayIntraHost bool

	// MaxBufferedResults bounds the local result cache between uploads
	// (the Fig-7 memory budget). When the Analyzer is unreachable long
	// enough to hit the cap, the oldest results are dropped and counted.
	// Defaults to 100000 (~minutes of probing).
	MaxBufferedResults int
}

func (c *Config) setDefaults() {
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * sim.Millisecond
	}
	if c.UploadInterval <= 0 {
		c.UploadInterval = 5 * sim.Second
	}
	if c.PinglistRefresh <= 0 {
		c.PinglistRefresh = 5 * sim.Minute
	}
	if c.ServiceProbeInterval <= 0 {
		c.ServiceProbeInterval = 10 * sim.Millisecond
	}
	if c.CommInfoRefresh <= 0 {
		c.CommInfoRefresh = 5 * sim.Minute
	}
	if c.PathTraceInterval <= 0 {
		c.PathTraceInterval = 10 * sim.Second
	}
	if c.MaxBufferedResults <= 0 {
		c.MaxBufferedResults = 100000
	}
}

// Agent is the per-host R-Pingmesh service.
type Agent struct {
	eng    *sim.Engine
	host   *rnic.Host
	stack  *verbs.Stack
	ctrl   proto.Controller
	sink   proto.RecordSink
	tracer trace.PathTracer
	cfg    Config
	rng    *rand.Rand

	rnics map[topo.DeviceID]*rnicState

	seq      uint64
	wrid     uint64
	inflight map[uint64]*inflightProbe
	pending  map[uint64]*pendingResponse // responder state keyed by WRID

	// probePool, respPool and wakePool recycle the per-probe records
	// (prober state, responder state, the ⑥ wakeup), each with its event
	// callback bound once, and payload is the scratch every probe and ACK
	// payload is encoded into (PostSend copies it). Together they keep
	// the steady-state probe path allocation-free.
	probePool []*inflightProbe
	respPool  []*pendingResponse
	wakePool  []*ackWake
	payload   [payloadSize]byte

	// batch is the in-place columnar upload under construction. Routes
	// are interned per (pinglist entry, traced-path epoch) via
	// routeIntern, so steady-state probing appends pure column values.
	batch       *proto.RecordBatch
	routeIntern map[routeKey]internEntry
	// lastBatchLen and lastBatchRoutes pre-size each new batch: the
	// previous one's record and route counts.
	lastBatchLen    int
	lastBatchRoutes int

	paths map[pathKey]*tracedPath

	// clockBase holds each local device's clock reading captured at one
	// calibration instant; differences between entries are the intra-host
	// clock offsets used by one-way probing.
	clockBase map[topo.DeviceID]sim.Time

	tickers []stopper
	started bool

	// starved models the Fig-6 false-positive condition: the service
	// occupies the Agent's CPU so responses stall past the prober's
	// timeout.
	starved bool

	// Stats counts Agent work for the overhead evaluation (Fig 7).
	Stats Stats
}

// Stats aggregates Agent-side counters.
type Stats struct {
	ProbesSent     int64
	ProbesAnswered int64
	OneWayProbes   int64
	Timeouts       int64
	Uploads        int64
	Traces         int64
	// ResultsDropped counts results shed at the buffer cap while the
	// Analyzer was unreachable.
	ResultsDropped int64
}

type stopper interface{ Stop() }

type rnicState struct {
	dev  *rnic.Device
	qp   *rnic.QP
	info proto.RNICInfo

	lists map[proto.ProbeKind]*pinglistState

	// Service-tracing pinglist, keyed by the connection tuple.
	service      map[ecmp.FiveTuple]proto.PingTarget
	serviceOrder []ecmp.FiveTuple // shuffled each pass (§7.3)
	serviceNext  int
}

type pinglistState struct {
	list   proto.Pinglist
	next   int
	ticker *sim.Ticker
}

type inflightProbe struct {
	a      *Agent
	expire func() // inf.onTimeout, bound once per pooled record

	seq  uint64
	kind proto.ProbeKind
	rs   *rnicState
	tgt  proto.PingTarget

	tuple ecmp.FiveTuple
	t1    sim.Time // ① host clock
	t2    sim.Time // ② prober device clock
	have2 bool
	t5    sim.Time // ⑤ prober device clock
	have5 bool
	t6    sim.Time // ⑥ host clock
	have6 bool
	resp  sim.Time // ④-③ from ACK2
	haveR bool

	// One-way (intra-host) probes: ③ on the destination device's clock.
	oneWay bool
	t3     sim.Time
	have3  bool

	timeout sim.Handle
}

// acquireProbe takes a zeroed record from the pool (or allocates one).
func (a *Agent) acquireProbe() *inflightProbe {
	if n := len(a.probePool); n > 0 {
		inf := a.probePool[n-1]
		a.probePool[n-1] = nil
		a.probePool = a.probePool[:n-1]
		return inf
	}
	inf := &inflightProbe{a: a}
	inf.expire = inf.onTimeout
	return inf
}

// releaseProbe recycles a finished probe record. Callers must have removed
// it from a.inflight and cancelled its timeout first (or be the timeout);
// late CQE handlers look probes up by seq, so they can never reach a
// recycled record.
func (a *Agent) releaseProbe(inf *inflightProbe) {
	*inf = inflightProbe{a: a, expire: inf.expire}
	a.probePool = append(a.probePool, inf)
}

// pendingResponse is the responder's state for one probe, from ③ until
// ACK2 is posted. fire (r.sendAck1, bound once per pooled record) is the
// responder application's wakeup.
type pendingResponse struct {
	a      *Agent
	fire   func()
	seq    uint64
	t3     sim.Time // ③ responder device clock
	rs     *rnicState
	tuple  ecmp.FiveTuple // the probe's tuple
	srcGID string
	srcQPN rnic.QPN
}

func (a *Agent) acquireResponse() *pendingResponse {
	if n := len(a.respPool); n > 0 {
		r := a.respPool[n-1]
		a.respPool[n-1] = nil
		a.respPool = a.respPool[:n-1]
		return r
	}
	r := &pendingResponse{a: a}
	r.fire = r.sendAck1
	return r
}

func (a *Agent) releaseResponse(r *pendingResponse) {
	*r = pendingResponse{a: a, fire: r.fire}
	a.respPool = append(a.respPool, r)
}

// ackWake is the prober application's ⑥ wakeup after ACK1's receive CQE.
// It names its probe by seq, not by record: the probe may time out (and
// its record be recycled) while the application is waking up.
type ackWake struct {
	a    *Agent
	fire func() // w.wake, bound once per pooled record
	seq  uint64
}

func (a *Agent) acquireWake() *ackWake {
	if n := len(a.wakePool); n > 0 {
		w := a.wakePool[n-1]
		a.wakePool[n-1] = nil
		a.wakePool = a.wakePool[:n-1]
		return w
	}
	w := &ackWake{a: a}
	w.fire = w.wake
	return w
}

type pathKey struct {
	dev   topo.DeviceID
	tuple ecmp.FiveTuple
}

// routeKey identifies an interned route in the current upload batch: the
// addressing fields that vary between pinglist entries. Path slices
// can't be map keys; internEntry remembers which slices the route was
// interned with and the agent re-interns when a re-trace swaps them.
type routeKey struct {
	kind    proto.ProbeKind
	srcDev  topo.DeviceID
	dstDev  topo.DeviceID
	dstHost topo.HostID
	dstIP   netip.Addr
	srcPort uint16
	dstQPN  rnic.QPN
}

type internEntry struct {
	idx       int32
	probePath []topo.LinkID
	ackPath   []topo.LinkID
}

// samePath reports whether two cached path slices are the same snapshot
// (identity, not content: tracers return the fabric's cached route, so a
// re-trace of an unchanged path keeps the same backing array).
func samePath(a, b []topo.LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// tracedPath is the last complete trace of one tuple (nil links until
// one completes). links is the tracer's shared read-only slice.
type tracedPath struct {
	links    []topo.LinkID
	tracedAt sim.Time
}

// New creates an Agent for a host. The verbs stack provides the devices
// and the modify_qp/destroy_qp trace hook; ctrl and sink are the
// Controller and Analyzer endpoints; tracer is the path-tracing backend.
func New(eng *sim.Engine, stack *verbs.Stack, ctrl proto.Controller, sink proto.RecordSink, tracer trace.PathTracer, cfg Config) *Agent {
	cfg.setDefaults()
	a := &Agent{
		eng:      eng,
		host:     stack.Host(),
		stack:    stack,
		ctrl:     ctrl,
		sink:     sink,
		tracer:   tracer,
		cfg:      cfg,
		rng:      eng.SubRand("agent/" + string(stack.Host().ID())),
		rnics:    make(map[topo.DeviceID]*rnicState),
		inflight: make(map[uint64]*inflightProbe),
		pending:  make(map[uint64]*pendingResponse),
		paths:    make(map[pathKey]*tracedPath),
	}
	stack.RegisterTracer(a)
	return a
}

// Host returns the host this agent runs on.
func (a *Agent) Host() *rnic.Host { return a.host }

// SetStarved toggles the CPU-starvation condition (service occupies the
// Agent's CPU; §6's 30 false-positive RNIC problems).
func (a *Agent) SetStarved(s bool) { a.starved = s }

// Start creates the probing/responding UD QP on every RNIC, registers the
// communication info with the Controller, pulls pinglists, and starts the
// periodic workers.
func (a *Agent) Start() error {
	if a.started {
		return fmt.Errorf("agent %s already started", a.host.ID())
	}
	a.started = true
	var infos []proto.RNICInfo
	for _, dev := range a.host.Devices() {
		rs := &rnicState{
			dev:     dev,
			qp:      dev.CreateQP(rnic.UD),
			lists:   make(map[proto.ProbeKind]*pinglistState),
			service: make(map[ecmp.FiveTuple]proto.PingTarget),
		}
		rs.info = proto.RNICInfo{
			Dev: dev.ID(), Host: a.host.ID(), IP: dev.IP(), GID: dev.GID(), QPN: rs.qp.QPN(),
		}
		rs.qp.OnCompletion(a.completionHandler(rs))
		a.rnics[dev.ID()] = rs
		infos = append(infos, rs.info)

		// Service-tracing worker: one ticker per RNIC. With an empty
		// pinglist each tick returns at once, but the ticker keeps firing:
		// parking idle tickers would drop events the sharded engine's
		// same-instant tie order depends on (DESIGN.md §13).
		rsCopy := rs
		a.track(a.eng.Every(a.cfg.ServiceProbeInterval, a.cfg.ServiceProbeInterval, func() {
			a.serviceProbeTick(rsCopy)
		}))
	}
	// Calibrate intra-host clock offsets: all local device clocks read at
	// the same instant (real agents approximate this with back-to-back
	// clock queries; the error is sub-µs).
	a.clockBase = make(map[topo.DeviceID]sim.Time, len(a.rnics))
	for dev, rs := range a.rnics {
		a.clockBase[dev] = rs.dev.ReadClock()
	}

	a.ctrl.Register(infos)
	a.refreshPinglists()

	a.track(a.eng.Every(a.cfg.UploadInterval, a.cfg.UploadInterval, a.upload))
	a.track(a.eng.Every(a.cfg.PinglistRefresh, a.cfg.PinglistRefresh, a.refreshPinglists))
	a.track(a.eng.Every(a.cfg.CommInfoRefresh, a.cfg.CommInfoRefresh, a.refreshServiceInfo))
	return nil
}

func (a *Agent) track(t *sim.Ticker) { a.tickers = append(a.tickers, t) }

// Stop halts all periodic work and destroys the probing QPs.
func (a *Agent) Stop() {
	for _, t := range a.tickers {
		t.Stop()
	}
	a.tickers = nil
	for _, rs := range a.rnics {
		for _, pls := range rs.lists {
			if pls.ticker != nil {
				pls.ticker.Stop()
			}
		}
		rs.dev.DestroyQP(rs.qp.QPN())
	}
	for _, inf := range a.inflight {
		inf.timeout.Cancel()
		a.releaseProbe(inf)
	}
	a.inflight = make(map[uint64]*inflightProbe)
	a.rnics = make(map[topo.DeviceID]*rnicState)
	a.started = false
}

// Restart models a host reboot / agent restart: all QPs are recreated
// with fresh QPNs and the new communication info is re-registered — the
// source of QPN-reset probe noise for other Agents (§4.3.1).
func (a *Agent) Restart() error {
	a.Stop()
	return a.Start()
}

// RefreshPinglists pulls pinglists from the Controller immediately, out
// of band of the periodic refresh (deployment tooling uses this right
// after a fleet-wide rollout so Agents see each other without waiting out
// the refresh interval).
func (a *Agent) RefreshPinglists() { a.refreshPinglists() }

// refreshPinglists pulls the latest ToR-mesh and inter-ToR pinglists from
// the Controller (every 5 min) and re-arms the probing tickers.
func (a *Agent) refreshPinglists() {
	lists := a.ctrl.Pinglists(a.host.ID())
	seen := make(map[topo.DeviceID]map[proto.ProbeKind]bool)
	for _, pl := range lists {
		rs, ok := a.rnics[pl.Src]
		if !ok {
			continue
		}
		if seen[pl.Src] == nil {
			seen[pl.Src] = make(map[proto.ProbeKind]bool)
		}
		seen[pl.Src][pl.Kind] = true
		cur, exists := rs.lists[pl.Kind]
		if exists {
			cur.list = pl
			if cur.next >= len(pl.Targets) {
				cur.next = 0
			}
			cur.ticker.Stop()
		} else {
			cur = &pinglistState{list: pl}
			rs.lists[pl.Kind] = cur
		}
		rsCopy, curCopy := rs, cur
		cur.ticker = a.eng.Every(cur.list.Interval, cur.list.Interval, func() {
			a.pinglistTick(rsCopy, curCopy)
		})
	}
	// Drop lists the Controller no longer issues.
	for dev, rs := range a.rnics {
		for kind, pls := range rs.lists {
			if seen[dev] == nil || !seen[dev][kind] {
				pls.ticker.Stop()
				delete(rs.lists, kind)
			}
		}
	}
}

func (a *Agent) pinglistTick(rs *rnicState, pls *pinglistState) {
	if len(pls.list.Targets) == 0 {
		return
	}
	tgt := pls.list.Targets[pls.next%len(pls.list.Targets)]
	pls.next++
	a.probe(rs, pls.list.Kind, tgt)
}

// serviceProbeTick fires one service-tracing probe, shuffling the
// pinglist at the start of each pass so hotspots cannot hide between
// periodic traffic bursts (§7.3).
func (a *Agent) serviceProbeTick(rs *rnicState) {
	if len(rs.service) == 0 {
		return
	}
	if rs.serviceNext >= len(rs.serviceOrder) {
		rs.serviceOrder = rs.serviceOrder[:0]
		for tuple := range rs.service {
			rs.serviceOrder = append(rs.serviceOrder, tuple)
		}
		// Deterministic order before shuffling (map iteration is random).
		sortTuples(rs.serviceOrder)
		a.rng.Shuffle(len(rs.serviceOrder), func(i, j int) {
			rs.serviceOrder[i], rs.serviceOrder[j] = rs.serviceOrder[j], rs.serviceOrder[i]
		})
		rs.serviceNext = 0
	}
	tuple := rs.serviceOrder[rs.serviceNext]
	rs.serviceNext++
	tgt, ok := rs.service[tuple]
	if !ok {
		return // closed between shuffle and tick
	}
	a.probe(rs, proto.ServiceTracing, tgt)
}

// probe launches one Fig-4 probe at the target.
func (a *Agent) probe(rs *rnicState, kind proto.ProbeKind, tgt proto.PingTarget) {
	a.seq++
	seq := a.seq
	tuple := ecmp.RoCETuple(rs.dev.IP(), tgt.Dst.IP, tgt.SrcPort)
	inf := a.acquireProbe()
	inf.seq, inf.kind, inf.rs, inf.tgt, inf.tuple = seq, kind, rs, tgt, tuple
	inf.t1 = a.host.ReadClock() // ①
	typ := msgProbe
	if a.cfg.OneWayIntraHost && tgt.Dst.Host == a.host.ID() {
		if _, local := a.rnics[tgt.Dst.Dev]; local {
			inf.oneWay = true
			typ = msgOneWay
			a.Stats.OneWayProbes++
		}
	}
	a.inflight[seq] = inf
	a.Stats.ProbesSent++

	if !a.cfg.OnDemandTracing {
		a.tracePaths(rs, tgt, tuple, inf.oneWay)
	}

	err := rs.qp.PostSend(rnic.SendRequest{
		WRID:    probeWRID(seq),
		SrcPort: tgt.SrcPort,
		DstIP:   tgt.Dst.IP,
		DstGID:  tgt.Dst.GID,
		DstQPN:  tgt.Dst.QPN,
		Payload: encodePayload(&a.payload, typ, seq, 0),
	})
	if err != nil {
		// QP unusable (e.g. mid-restart): report as timeout immediately.
		delete(a.inflight, seq)
		a.finishTimeout(inf)
		return
	}
	inf.timeout = a.eng.After(a.cfg.ProbeTimeout, inf.expire)
}

// onTimeout is a probe's timeout event. Every path that recycles the
// record cancels the timeout first, so a firing timeout always belongs to
// the record's current probe.
func (inf *inflightProbe) onTimeout() {
	a := inf.a
	if _, live := a.inflight[inf.seq]; !live {
		return
	}
	// If both ACKs already reached the RNIC, the probe did not time
	// out on the wire — the Agent process is just slow to handle the
	// CQEs (e.g. CPU starvation); the pending ⑥ handler will finish
	// it with an honest (large) prober delay.
	if inf.have2 && inf.have5 && inf.haveR {
		return
	}
	delete(a.inflight, inf.seq)
	if a.cfg.OnDemandTracing {
		// The rejected design: trace only now that the probe failed.
		// With the fault still present the trace dies at the broken
		// hop and yields nothing usable.
		a.tracePaths(inf.rs, inf.tgt, inf.tuple, inf.oneWay)
	}
	a.finishTimeout(inf)
}

// tracePaths refreshes the cached traced path of the probe tuple and of
// its ACK tuple if stale (§4.2.3: continuous tracing, bounded frequency).
// One-way probes have no ACK to trace.
func (a *Agent) tracePaths(rs *rnicState, tgt proto.PingTarget, tuple ecmp.FiveTuple, oneWay bool) {
	a.traceOne(pathKey{dev: rs.dev.ID(), tuple: tuple}, rs.dev.ID())
	if oneWay {
		return
	}
	ack := ecmp.RoCETuple(tgt.Dst.IP, rs.dev.IP(), tgt.SrcPort)
	a.traceOne(pathKey{dev: tgt.Dst.Dev, tuple: ack}, tgt.Dst.Dev)
}

func (a *Agent) traceOne(key pathKey, from topo.DeviceID) {
	tp, ok := a.paths[key]
	if ok && a.eng.Now()-tp.tracedAt < a.cfg.PathTraceInterval {
		return
	}
	if !ok {
		tp = &tracedPath{}
		a.paths[key] = tp
	}
	tp.tracedAt = a.eng.Now()
	if a.tracer == nil {
		return
	}
	a.Stats.Traces++
	// Incomplete traces keep the previous complete path (§4.2.3: in a
	// persistent failure, replayed paths rehash and mislead). A complete
	// re-trace returns the same shared slice, so record's interned route
	// stays valid across it.
	if links := a.tracer.TracePath(a.host.ID(), from, key.tuple); links != nil {
		tp.links = links
	}
}

func (a *Agent) cachedPath(dev topo.DeviceID, tuple ecmp.FiveTuple) []topo.LinkID {
	if tp, ok := a.paths[pathKey{dev: dev, tuple: tuple}]; ok {
		return tp.links
	}
	return nil
}

// completionHandler dispatches CQEs for one RNIC's probing/responding QP.
func (a *Agent) completionHandler(rs *rnicState) func(rnic.CQE) {
	return func(c rnic.CQE) {
		switch c.Type {
		case rnic.CQESend:
			a.onSendCQE(rs, c)
		case rnic.CQERecv:
			a.onRecvCQE(rs, c)
		}
	}
}

// Probe work requests and responder (ACK) work requests live in disjoint
// WRID spaces: probes are even, responder sends are odd.
func probeWRID(seq uint64) uint64 { return seq << 1 }
func ackWRID(n uint64) uint64     { return n<<1 | 1 }
func isAckWRID(w uint64) bool     { return w&1 == 1 }
func wridPayload(w uint64) uint64 { return w >> 1 }

func (a *Agent) onSendCQE(rs *rnicState, c rnic.CQE) {
	if !isAckWRID(c.WRID) {
		if inf, ok := a.inflight[wridPayload(c.WRID)]; ok && !inf.have2 {
			// ② — the probe hit the wire.
			inf.t2 = c.Timestamp
			inf.have2 = true
			if inf.oneWay {
				a.maybeFinishOneWay(nil, inf)
			} else {
				a.maybeFinish(inf)
			}
		}
		return
	}
	if pr, ok := a.pending[wridPayload(c.WRID)]; ok {
		// ④ — ACK1 hit the wire; now the responder knows its processing
		// delay and ships it in ACK2.
		delete(a.pending, wridPayload(c.WRID))
		delay := c.Timestamp - pr.t3
		a.wrid++
		_ = rs.qp.PostSend(rnic.SendRequest{
			WRID:    ackWRID(a.wrid),
			SrcPort: pr.tuple.SrcPort, // mimic RC ACK source port
			DstIP:   pr.tuple.SrcIP,
			DstGID:  pr.srcGID,
			DstQPN:  pr.srcQPN,
			Payload: encodePayload(&a.payload, msgAck2, pr.seq, delay),
		})
		a.releaseResponse(pr)
	}
}

func (a *Agent) onRecvCQE(rs *rnicState, c rnic.CQE) {
	typ, seq, respDelay, err := decodePayload(c.Payload)
	if err != nil {
		return
	}
	switch typ {
	case msgProbe:
		a.respond(rs, c, seq)
	case msgOneWay:
		// The destination QP is ours: record ③ directly, no ACKs (§7.4).
		inf, ok := a.inflight[seq]
		if !ok {
			return
		}
		inf.t3 = c.Timestamp
		inf.have3 = true
		a.maybeFinishOneWay(rs, inf)
	case msgAck1:
		inf, ok := a.inflight[seq]
		if !ok {
			return
		}
		inf.t5 = c.Timestamp // ⑤
		inf.have5 = true
		// ⑥ is an application timestamp: it exists only after the Agent
		// process actually handles the completion.
		w := a.acquireWake()
		w.seq = seq
		a.eng.After(a.appDelay(), w.fire)
	case msgAck2:
		inf, ok := a.inflight[seq]
		if !ok {
			return
		}
		inf.resp = respDelay
		inf.haveR = true
		a.maybeFinish(inf)
	}
}

// wake is the ⑥ wakeup: re-look the probe up by seq, stamp ⑥.
func (w *ackWake) wake() {
	a, seq := w.a, w.seq
	a.wakePool = append(a.wakePool, w)
	inf, ok := a.inflight[seq]
	if !ok {
		return
	}
	inf.t6 = a.host.ReadClock()
	inf.have6 = true
	a.maybeFinish(inf)
}

// respond implements the responder role: ACK1 immediately (well, after
// the app wakes up), ACK2 after ACK1's send CQE reveals ④.
func (a *Agent) respond(rs *rnicState, c rnic.CQE, seq uint64) {
	pr := a.acquireResponse()
	pr.seq, pr.t3, pr.rs, pr.tuple = seq, c.Timestamp, rs, c.Tuple
	pr.srcGID, pr.srcQPN = c.SrcGID, c.SrcQPN
	a.eng.After(a.appDelay(), pr.fire)
}

// sendAck1 is the responder application's wakeup: post ACK1 and wait
// for its send CQE (④) in a.pending. A QP that refuses the send (torn
// down by a restart) produces no CQE, so the record is recycled at once.
func (pr *pendingResponse) sendAck1() {
	a := pr.a
	a.wrid++
	a.pending[a.wrid] = pr
	a.Stats.ProbesAnswered++
	err := pr.rs.qp.PostSend(rnic.SendRequest{
		WRID:    ackWRID(a.wrid),
		SrcPort: pr.tuple.SrcPort,
		DstIP:   pr.tuple.SrcIP,
		DstGID:  pr.srcGID,
		DstQPN:  pr.srcQPN,
		Payload: encodePayload(&a.payload, msgAck1, pr.seq, 0),
	})
	if err != nil {
		delete(a.pending, a.wrid)
		a.releaseResponse(pr)
	}
}

// appDelay is the application-level scheduling delay before the Agent
// reacts to a CQE. Under CPU starvation it stretches past the probe
// timeout, which is exactly how the paper's false-positive "RNIC drops"
// arise (§6).
func (a *Agent) appDelay() sim.Time {
	d := a.host.ProcessingDelay()
	if a.starved {
		d += sim.Time(float64(a.cfg.ProbeTimeout) * (0.6 + 2.4*a.rng.Float64()))
	}
	return d
}

// maybeFinishOneWay completes a §7.4 intra-host probe once both the send
// CQE (②, source device clock) and the receive CQE (③, destination
// device clock) are in: one-way delay = (③ - base_dst) - (② - base_src).
func (a *Agent) maybeFinishOneWay(_ *rnicState, inf *inflightProbe) {
	if !(inf.have2 && inf.have3) {
		return
	}
	if _, live := a.inflight[inf.seq]; !live {
		return
	}
	delete(a.inflight, inf.seq)
	inf.timeout.Cancel()
	oneWay := (inf.t3 - a.clockBase[inf.tgt.Dst.Dev]) - (inf.t2 - a.clockBase[inf.rs.dev.ID()])
	// NetworkRTT keeps its usual meaning for the Analyzer's SLA
	// aggregation: the round-trip equivalent.
	a.record(inf, proto.RecOneWay, 2*oneWay, 0, 0, oneWay)
	a.releaseProbe(inf)
}

func (a *Agent) maybeFinish(inf *inflightProbe) {
	if !(inf.have2 && inf.have5 && inf.have6 && inf.haveR) {
		return
	}
	if _, live := a.inflight[inf.seq]; !live {
		return
	}
	delete(a.inflight, inf.seq)
	inf.timeout.Cancel()

	rtt := (inf.t5 - inf.t2) - inf.resp
	prober := (inf.t6 - inf.t1) - (inf.t5 - inf.t2)
	a.record(inf, 0, rtt, prober, inf.resp, 0)
	a.releaseProbe(inf)
}

func (a *Agent) finishTimeout(inf *inflightProbe) {
	a.Stats.Timeouts++
	a.record(inf, proto.RecTimeout, 0, 0, 0, 0)
	a.releaseProbe(inf)
}

// record appends one finished probe to the in-place columnar batch,
// shedding the oldest records beyond the memory cap. The route (all
// addressing fields plus the cached traced paths) is interned once per
// (pinglist entry, path epoch); steady-state probing therefore writes
// eight column values and nothing else.
func (a *Agent) record(inf *inflightProbe, flags uint8, rtt, probd, respd, oneway sim.Time) {
	b := a.batch
	if b == nil {
		b = &proto.RecordBatch{}
		b.Grow(a.lastBatchLen, a.lastBatchRoutes)
		a.batch = b
		if a.routeIntern == nil {
			a.routeIntern = make(map[routeKey]internEntry)
		}
	}
	if b.Len() >= a.cfg.MaxBufferedResults {
		shed := b.Len() - a.cfg.MaxBufferedResults + 1
		b.DropFirst(shed)
		a.Stats.ResultsDropped += int64(shed)
	}

	ackTuple := ecmp.RoCETuple(inf.tgt.Dst.IP, inf.rs.dev.IP(), inf.tgt.SrcPort)
	probePath := a.cachedPath(inf.rs.dev.ID(), inf.tuple)
	ackPath := a.cachedPath(inf.tgt.Dst.Dev, ackTuple)
	key := routeKey{
		kind:    inf.kind,
		srcDev:  inf.rs.dev.ID(),
		dstDev:  inf.tgt.Dst.Dev,
		dstHost: inf.tgt.Dst.Host,
		dstIP:   inf.tgt.Dst.IP,
		srcPort: inf.tgt.SrcPort,
		dstQPN:  inf.tgt.Dst.QPN,
	}
	e, ok := a.routeIntern[key]
	if !ok || !samePath(e.probePath, probePath) || !samePath(e.ackPath, ackPath) {
		e = internEntry{
			idx: b.AddRoute(proto.Route{
				Kind:      inf.kind,
				SrcDev:    inf.rs.dev.ID(),
				SrcHost:   a.host.ID(),
				DstDev:    inf.tgt.Dst.Dev,
				DstHost:   inf.tgt.Dst.Host,
				SrcIP:     inf.rs.dev.IP(),
				DstIP:     inf.tgt.Dst.IP,
				SrcPort:   inf.tgt.SrcPort,
				DstQPN:    inf.tgt.Dst.QPN,
				ProbePath: probePath,
				AckPath:   ackPath,
			}),
			probePath: probePath,
			ackPath:   ackPath,
		}
		a.routeIntern[key] = e
	}
	b.Append(e.idx, inf.seq, inf.t1, flags, rtt, probd, respd, oneway)
}

// upload ships the buffered columnar batch toward the Analyzer (every
// 5 s) — in the full wiring the sink is the ingest pipeline, not the
// Analyzer itself. Ownership of the batch transfers to the sink; the
// agent starts a fresh one. A down host uploads nothing, which is itself
// the Analyzer's host-down signal. Each batch carries a per-host
// sequence number so the ingest tier's per-host FIFO guarantee is
// end-to-end checkable.
func (a *Agent) upload() {
	if a.host.Down() {
		return
	}
	a.Stats.Uploads++
	b := a.batch
	if b == nil {
		b = &proto.RecordBatch{}
	}
	b.Host = a.host.ID()
	b.Sent = a.eng.Now()
	b.Seq = uint64(a.Stats.Uploads)
	a.batch = nil
	a.lastBatchLen, a.lastBatchRoutes = b.Len(), b.Routes()
	clear(a.routeIntern) // route indexes die with the handed-off batch
	a.sink.UploadRecords(b)
}

// PendingResults reports the number of buffered, not-yet-uploaded results
// (memory footprint driver, Fig 7).
func (a *Agent) PendingResults() int {
	if a.batch == nil {
		return 0
	}
	return a.batch.Len()
}

// InflightProbes reports the number of probes awaiting ACKs or timeout.
func (a *Agent) InflightProbes() int { return len(a.inflight) }

// --- Service tracing (verbs.Tracer implementation, §4.2.2) -------------

// QPModified implements verbs.Tracer: a service RC connection was
// established on this host. The Agent resolves the destination RNIC's
// communication info from the Controller and adds a service-tracing
// pinglist entry that copies the connection's 5-tuple.
func (a *Agent) QPModified(ev verbs.ConnEvent) {
	rs, ok := a.rnics[ev.LocalDev]
	if !ok {
		return
	}
	info, ok := a.ctrl.Lookup(ev.Tuple.DstIP)
	if !ok {
		return // destination host runs no Agent
	}
	rs.service[ev.Tuple] = proto.PingTarget{Dst: info, SrcPort: ev.Tuple.SrcPort}
}

// QPDestroyed implements verbs.Tracer: the connection closed, so its
// pinglist entry is removed; with no connections left, the RNIC's
// service-tracing ticks find an empty list and send nothing.
func (a *Agent) QPDestroyed(ev verbs.ConnEvent) {
	rs, ok := a.rnics[ev.LocalDev]
	if !ok {
		return
	}
	delete(rs.service, ev.Tuple)
}

// refreshServiceInfo re-resolves the communication info of every
// service-tracing target (every 5 min), picking up QPN changes.
func (a *Agent) refreshServiceInfo() {
	for _, rs := range a.rnics {
		for tuple, tgt := range rs.service {
			if info, ok := a.ctrl.Lookup(tuple.DstIP); ok {
				tgt.Dst = info
				rs.service[tuple] = tgt
			}
		}
	}
}

// ServiceTargets reports the service-tracing pinglist size of one RNIC.
func (a *Agent) ServiceTargets(dev topo.DeviceID) int {
	if rs, ok := a.rnics[dev]; ok {
		return len(rs.service)
	}
	return 0
}

// ProbingQPN returns the current probing QPN of one of this agent's
// RNICs (tests use it to verify QPN-reset behaviour).
func (a *Agent) ProbingQPN(dev topo.DeviceID) (rnic.QPN, bool) {
	rs, ok := a.rnics[dev]
	if !ok {
		return 0, false
	}
	return rs.qp.QPN(), true
}

func sortTuples(ts []ecmp.FiveTuple) {
	// Insertion sort by string key: lists are small (one entry per
	// service connection on the RNIC).
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].String() < ts[j-1].String(); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
