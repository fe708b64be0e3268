// Package core assembles a complete R-Pingmesh deployment over the
// simulated RoCE fabric: topology, data plane, one software RNIC per
// topology RNIC, per-host verbs stacks and Agents, a Controller, and an
// Analyzer — the full Fig-3 system — plus the experiment harness the
// benchmarks drive.
package core

import (
	"fmt"

	"rpingmesh/internal/agent"
	"rpingmesh/internal/alert"
	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/controller"
	"rpingmesh/internal/pipeline"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/rnic"
	"rpingmesh/internal/service"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/simnet"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/trace"
	"rpingmesh/internal/tsdb"
	"rpingmesh/internal/verbs"
)

// Config assembles a cluster. Only Topology is required.
type Config struct {
	Topology *topo.Topology
	Seed     int64

	// Shards partitions the simulation by topology pod and runs one engine
	// per pod shard plus a fabric shard in conservative lockstep windows
	// (DESIGN.md §9). 0 or 1 selects the classic serial engine. Values
	// above the pod count are clamped; topologies without pod structure
	// (rail fabrics, single-pod CLOS) always fall back to serial. Results
	// are bit-identical across every Shards value and GOMAXPROCS setting —
	// sharding buys wall-clock speed, never different physics.
	Shards int

	// ShardEpoch caps the sharded engine's adaptive lookahead widening
	// (DESIGN.md §13): the maximum number of base lookahead windows one
	// barrier-to-barrier epoch may span. 0 selects the engine default
	// (sim.DefaultMaxEpoch); 1 disables widening and barrier elision's
	// extended horizons degrade to the classic per-window lockstep.
	// Results are bit-identical for every value — only coordination
	// frequency changes.
	ShardEpoch int

	Net        simnet.Config
	Agent      agent.Config
	Controller controller.Config
	Analyzer   analyzer.Config
	// Pipeline configures the ingest tier between the Agents and the
	// Analyzer. The cluster forces deferred (deterministic) mode on it:
	// drains ride the simulation engine, so delivery happens at the same
	// virtual instant as the upload, in global upload order.
	Pipeline pipeline.Config
	// TSDB configures the bounded time-series store the Analyzer
	// publishes per-window aggregates into.
	TSDB tsdb.Config
	// Alert configures the incident lifecycle engine fed from every
	// analysis window (the console/alarm tier of Fig 3). The zero value
	// uses the defaults; the engine always runs — observing an empty
	// window is how open incidents eventually auto-resolve.
	Alert alert.Config

	// Localizer selects the Analyzer's switch-localization vote weight:
	// "" / "alg1" for the paper's Algorithm 1, "007" for democratic
	// per-flow voting. Shorthand for setting Analyzer.Localizer; the
	// explicit Analyzer field wins if both are set.
	Localizer string

	// Tenants / TenantCapacityPPS are shorthand for the controller's
	// per-tenant probe-budget scheduler (controller.Config.Tenants);
	// the explicit Controller fields win if both are set.
	Tenants           []controller.TenantConfig
	TenantCapacityPPS float64

	// MaxClockOffset randomizes each RNIC and host clock offset uniformly
	// in [-MaxClockOffset, +MaxClockOffset]. Defaults to 10 s — large
	// enough that any algebra accidentally mixing clocks is glaring.
	MaxClockOffset sim.Time
	// MaxDriftPPM randomizes clock drift in [-MaxDriftPPM, +MaxDriftPPM].
	// Defaults to 0 (drift-free); tests enable it explicitly.
	MaxDriftPPM float64

	// UseINT selects the INT path tracer instead of rate-limited
	// Traceroute (§7.4).
	UseINT bool

	// RotateInterval is the inter-ToR 5-tuple rotation period (1 h).
	RotateInterval sim.Time

	// WrapController, when set, wraps the in-memory Controller with the
	// transport the Agents will actually use — e.g. a wire.Client dialled
	// at a wire.Server over real TCP (the Fig-3 management-network
	// deployment). The Analyzer keeps consulting the in-memory instance
	// as its QPN registry, which the wrapper must be backed by.
	WrapController func(proto.Controller) proto.Controller
}

// HostNode bundles everything running on one server.
type HostNode struct {
	Host    *rnic.Host
	Stack   *verbs.Stack
	Agent   *agent.Agent
	Devices map[topo.DeviceID]*rnic.Device
}

// Cluster is a fully wired deployment.
type Cluster struct {
	Eng        *sim.Engine
	Topo       *topo.Topology
	Net        *simnet.Net
	Controller *controller.Controller
	Analyzer   *analyzer.Analyzer
	Tracer     trace.PathTracer
	Hosts      map[topo.HostID]*HostNode
	// Ingest is the pipeline every Agent uploads into (the Kafka/Flink
	// tier of Fig 3); the Analyzer and all taps consume from it.
	Ingest *pipeline.Pipeline
	// TSDB holds the Analyzer's per-window aggregates for historical
	// queries.
	TSDB *tsdb.DB
	// Alerts folds each window's Problems into long-lived incidents
	// (open → acked → resolved, with flap suppression); the ops-console
	// API and notifiers hang off it.
	Alerts *alert.Engine

	cfg         Config
	sharded     *sim.ShardedEngine // nil in serial mode
	sharding    topo.Sharding
	taps        []func(*proto.RecordBatch)
	windowHooks []func(analyzer.WindowReport)
}

// Shards reports the number of pod shards the simulation actually runs
// with (1 for the serial engine).
func (c *Cluster) Shards() int {
	if c.sharded == nil {
		return 1
	}
	return c.sharded.Pods()
}

// ShardedEngine exposes the parallel engine group, or nil in serial mode
// (benchmarks use it to toggle Serial window execution).
func (c *Cluster) ShardedEngine() *sim.ShardedEngine { return c.sharded }

// UploadRecords implements proto.RecordSink by enqueueing into the
// ingest pipeline — the Agents' upload path, which external injectors
// take too. Ownership of the batch passes to the pipeline.
func (c *Cluster) UploadRecords(b *proto.RecordBatch) { c.Ingest.UploadRecords(b) }

// deliverRecords is the pipeline's downstream: taps first, then the
// Analyzer's columnar ingest.
func (c *Cluster) deliverRecords(b *proto.RecordBatch) {
	for _, tap := range c.taps {
		tap(b)
	}
	c.Analyzer.UploadRecords(b)
}

// recordDeliverer subscribes the cluster's delivery seam to the pipeline
// as a RecordSink (Cluster itself enqueues, so it cannot be the
// subscriber too).
type recordDeliverer struct{ c *Cluster }

func (d recordDeliverer) UploadRecords(b *proto.RecordBatch) { d.c.deliverRecords(b) }

// TapRecords registers an observer for every batch the ingest tier
// delivers (coalesced, in upload order). The batch is borrowed: valid
// only for the call, and never to be written.
func (c *Cluster) TapRecords(fn func(*proto.RecordBatch)) { c.taps = append(c.taps, fn) }

// OnWindow registers an observer invoked after each analysis window has
// closed AND been folded into the incident engine — the seam the
// chaos/soak harness hangs its invariant checkers on. Register before
// the simulation runs; hooks run on the engine goroutine in registration
// order.
func (c *Cluster) OnWindow(fn func(analyzer.WindowReport)) {
	c.windowHooks = append(c.windowHooks, fn)
}

// NewCluster builds (but does not start) a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("core: Config.Topology is required")
	}
	if cfg.Analyzer.Localizer == "" {
		cfg.Analyzer.Localizer = cfg.Localizer
	}
	if err := analyzer.CheckLocalizer(cfg.Analyzer.Localizer); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.MaxClockOffset == 0 {
		cfg.MaxClockOffset = 10 * sim.Second
	}
	if cfg.RotateInterval <= 0 {
		cfg.RotateInterval = sim.Hour
	}
	if cfg.Topology.Rail {
		// Rail-optimized fabrics use §7.4's host-local one-way probing.
		cfg.Agent.OneWayIntraHost = true
	}
	tp := cfg.Topology

	// Partition by pod when sharding is requested and the topology has pod
	// structure; otherwise run the classic serial engine. Lookahead is the
	// minimum cross-shard RNIC-to-RNIC hop count times the per-hop
	// propagation delay: no packet can cross pods faster than that, so pod
	// shards may safely run that far apart in virtual time.
	var sharded *sim.ShardedEngine
	var sharding topo.Sharding
	if cfg.Shards > 1 && !tp.Rail {
		sh, err := tp.Partition(cfg.Shards)
		if err != nil {
			return nil, err
		}
		if sh.Shards > 1 {
			lookahead := sim.Time(sh.MinCrossPathLinks) * cfg.Net.EffectivePropDelay()
			if lookahead <= 0 {
				return nil, fmt.Errorf("core: sharded engine computed non-positive lookahead")
			}
			sharded = sim.NewSharded(cfg.Seed, sh.Shards, lookahead)
			sharded.MaxEpoch = cfg.ShardEpoch
			// Per-pair horizons let barrier elision run a solo shard past
			// the uniform window: shard pairs that are farther apart than
			// the global minimum admit proportionally wider bounds, and
			// disconnected pairs none at all.
			if sh.PairMinLinks != nil {
				pair := make([][]sim.Time, sh.Shards)
				for a := range pair {
					pair[a] = make([]sim.Time, sh.Shards)
					for b := range pair[a] {
						pair[a][b] = sim.Time(sh.PairMinLinks[a][b]) * cfg.Net.EffectivePropDelay()
					}
				}
				sharded.SetPairLookahead(pair)
			}
			sharding = sh
		}
	}
	var eng *sim.Engine
	if sharded != nil {
		eng = sharded.Fabric()
	} else {
		eng = sim.New(cfg.Seed)
	}
	net := simnet.New(eng, tp, cfg.Net)
	if len(cfg.Controller.Tenants) == 0 && len(cfg.Tenants) > 0 {
		cfg.Controller.Tenants = cfg.Tenants
		cfg.Controller.TenantCapacityPPS = cfg.TenantCapacityPPS
	}
	ctrl := controller.New(eng, tp, cfg.Controller)
	an := analyzer.New(eng, tp, ctrl, cfg.Analyzer)

	var tracer trace.PathTracer
	if cfg.UseINT {
		tracer = trace.NewINT(eng, net)
	} else {
		tracer = trace.NewTraceroute(eng, net)
	}

	clockRNG := eng.SubRand("clocks")
	randClock := func() rnic.Clock {
		off := sim.Time(clockRNG.Int63n(int64(2*cfg.MaxClockOffset)+1)) - cfg.MaxClockOffset
		drift := 0.0
		if cfg.MaxDriftPPM > 0 {
			drift = (clockRNG.Float64()*2 - 1) * cfg.MaxDriftPPM
		}
		return rnic.Clock{Offset: off, DriftPPM: drift}
	}

	c := &Cluster{
		Eng: eng, Topo: tp, Net: net, Controller: ctrl, Analyzer: an,
		Tracer:   tracer,
		Hosts:    make(map[topo.HostID]*HostNode),
		cfg:      cfg,
		sharded:  sharded,
		sharding: sharding,
	}

	// Ingest tier: Agents upload into the pipeline; the pipeline delivers
	// (deterministically, same virtual instant) to the taps and the
	// Analyzer. The Analyzer publishes each window into the tsdb.
	pcfg := cfg.Pipeline
	pcfg.Defer = func(fn func()) { eng.After(0, fn) }
	pcfg.Now = func() int64 { return int64(eng.Now()) }
	c.Ingest = pipeline.New(pcfg)
	c.Ingest.SubscribeRecords(recordDeliverer{c})
	c.TSDB = tsdb.Open(cfg.TSDB)
	// The sketch tier consumes the record stream directly: per-host RTT
	// quantile ladders and per-device count-min tallies, all within the
	// enforced bytes-per-series budget.
	c.Ingest.SubscribeRecords(c.TSDB)
	an.SetMetricSink(c.TSDB)
	c.Alerts = alert.NewEngine(cfg.Alert)

	agentCtrl := proto.Controller(ctrl)
	if cfg.WrapController != nil {
		agentCtrl = cfg.WrapController(ctrl)
	}

	for _, hid := range tp.AllHosts() {
		// Everything on a host — its clock, RNIC timers/CQEs, and the Agent
		// with its probing tickers — runs on the host's pod shard; the
		// Agent's uploads hop to the fabric shard through shardSink.
		hostEng := eng
		var sink proto.RecordSink = c
		if sharded != nil {
			hostEng = sharded.Pod(sharding.HostShard[hid])
			sink = shardSink{pod: hostEng, fab: eng, c: c}
		}
		h := rnic.NewHost(hostEng, hid, randClock())
		node := &HostNode{Host: h, Devices: make(map[topo.DeviceID]*rnic.Device)}
		for _, devID := range tp.Hosts[hid].RNICs {
			info := tp.RNICs[devID]
			d := rnic.NewDevice(hostEng, net, rnic.Config{
				ID: devID, IP: info.IP, GID: info.GID, Host: hid,
				Clock: randClock(),
			})
			h.Attach(d)
			net.Register(d)
			node.Devices[devID] = d
		}
		node.Stack = verbs.NewStack(h)
		node.Agent = agent.New(hostEng, node.Stack, agentCtrl, sink, tracer, cfg.Agent)
		c.Hosts[hid] = node
	}

	// Periodic control-plane work: the Analyzer window (flushing the
	// ingest tier first so windows close on complete data, then folding
	// the report into the incident engine) and the Controller's hourly
	// tuple rotation.
	eng.Every(an.Window(), an.Window(), func() {
		c.Ingest.DrainAll()
		rep := an.Tick()
		c.Alerts.Observe(rep)
		for _, fn := range c.windowHooks {
			fn(rep)
		}
	})
	eng.Every(cfg.RotateInterval, cfg.RotateInterval, ctrl.RotateInterToR)

	return c, nil
}

// StartAgents starts every host's Agent, staggered over the first 100 ms
// so uploads and pinglist pulls do not synchronize, then refreshes all
// pinglists once the whole fleet has registered (an Agent that started
// early would otherwise probe only the subset registered before it).
func (c *Cluster) StartAgents() {
	stagger := c.Eng.SubRand("agent-stagger")
	for _, hid := range c.Topo.AllHosts() {
		node := c.Hosts[hid]
		c.Eng.At(c.Eng.Now()+sim.Time(stagger.Int63n(int64(100*sim.Millisecond))), func() {
			if err := node.Agent.Start(); err != nil {
				panic(err) // starting twice is a harness bug
			}
		})
	}
	c.Eng.At(c.Eng.Now()+150*sim.Millisecond, func() {
		// Sorted host order: refreshing re-arms every probing ticker, so
		// iterating the Hosts map here would let Go's randomized map order
		// decide event seq for all future same-instant probe firings and
		// break per-seed reproducibility.
		for _, hid := range c.Topo.AllHosts() {
			c.Hosts[hid].Agent.RefreshPinglists()
		}
	})
}

// shardSink carries an Agent's upload from its pod shard to the fabric
// shard, at the upload's own virtual instant. Pod events must not mutate
// fabric-owned state (the ingest pipeline) directly; the barrier-applied
// event does, with full fabric-state access.
type shardSink struct {
	pod *sim.Engine
	fab *sim.Engine
	c   *Cluster
}

func (s shardSink) UploadRecords(b *proto.RecordBatch) {
	s.pod.ScheduleOn(s.fab, s.pod.Now(), func() { s.c.UploadRecords(b) })
}

// Run advances the simulation by d.
func (c *Cluster) Run(d sim.Time) {
	if c.sharded != nil {
		c.sharded.RunUntil(c.sharded.Now() + d)
		return
	}
	c.Eng.RunUntil(c.Eng.Now() + d)
}

// Agent returns the agent on a host.
func (c *Cluster) Agent(h topo.HostID) *agent.Agent { return c.Hosts[h].Agent }

// Host returns the host node.
func (c *Cluster) Host(h topo.HostID) *HostNode { return c.Hosts[h] }

// Device returns a device anywhere in the cluster.
func (c *Cluster) Device(dev topo.DeviceID) *rnic.Device {
	r, ok := c.Topo.RNICs[dev]
	if !ok {
		return nil
	}
	return c.Hosts[r.Host].Devices[dev]
}

// DeviceHostNode returns the host node owning a device.
func (c *Cluster) DeviceHostNode(dev topo.DeviceID) *HostNode {
	r, ok := c.Topo.RNICs[dev]
	if !ok {
		return nil
	}
	return c.Hosts[r.Host]
}

// Participants assembles service.Participant bundles for a training job
// across the given hosts (all hosts when none are named), in sorted host
// order with devices in NIC-index order.
func (c *Cluster) Participants(hosts ...topo.HostID) []service.Participant {
	if len(hosts) == 0 {
		hosts = c.Topo.AllHosts()
	}
	out := make([]service.Participant, 0, len(hosts))
	for _, hid := range hosts {
		node, ok := c.Hosts[hid]
		if !ok {
			continue
		}
		p := service.Participant{Stack: node.Stack}
		for _, dev := range c.Topo.Hosts[hid].RNICs {
			p.Devices = append(p.Devices, node.Devices[dev])
		}
		out = append(out, p)
	}
	return out
}

// NewJob builds a training job over the given hosts, wired to feed its
// throughput samples to the Analyzer's impact assessment.
func (c *Cluster) NewJob(cfg service.Config, hosts ...topo.HostID) (*service.Job, error) {
	job, err := service.NewJob(c.Eng, c.Net, c.Participants(hosts...), cfg)
	if err != nil {
		return nil, err
	}
	job.OnPerfSample = c.Analyzer.ObserveServicePerf
	return job, nil
}
