// Package rpingmesh is the public facade of the R-Pingmesh reproduction:
// a service-aware RoCE network monitoring and diagnostic system based on
// end-to-end active probing (Liu et al., SIGCOMM 2024), together with the
// simulated RoCE substrate it runs on.
//
// A deployment is a Cluster: a topology populated with software RNICs,
// per-host Agents, a Controller, and an Analyzer. The quickstart is:
//
//	tp, _ := rpingmesh.BuildClos(rpingmesh.ClosConfig{
//		Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4,
//		HostsPerToR: 2, RNICsPerHost: 2,
//	})
//	cluster, _ := rpingmesh.New(rpingmesh.Config{Topology: tp})
//	cluster.StartAgents()
//	cluster.Run(rpingmesh.Minute)
//	report, _ := cluster.Analyzer.LastReport()
//
// Fault injection (the 14 root causes of the paper's Table 2) lives in
// internal/faultgen via NewInjector; DML workloads via Cluster.NewJob;
// the paper's tables and figures via the Experiments registry.
package rpingmesh

import (
	"rpingmesh/internal/agent"
	"rpingmesh/internal/alert"
	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/api"
	"rpingmesh/internal/chaos"
	"rpingmesh/internal/controller"
	"rpingmesh/internal/core"
	"rpingmesh/internal/experiments"
	"rpingmesh/internal/faultgen"
	"rpingmesh/internal/fed"
	"rpingmesh/internal/pipeline"
	"rpingmesh/internal/qos"
	"rpingmesh/internal/service"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/tsdb"
	"rpingmesh/internal/watchdog"
)

// Core deployment types.
type (
	// Config assembles a cluster; see core.Config for the full set of
	// knobs (topology is required, everything else defaults to the
	// paper's deployment parameters).
	Config = core.Config
	// Cluster is a fully wired R-Pingmesh deployment.
	Cluster = core.Cluster
	// AgentConfig carries the Agent's running parameters (§5).
	AgentConfig = agent.Config
)

// Topology construction.
type (
	// Topology is the cluster graph.
	Topology = topo.Topology
	// ClosConfig parameterizes the 3-tier CLOS fabric of §6.
	ClosConfig = topo.ClosConfig
	// RailConfig parameterizes the rail-optimized fabric of §7.4.
	RailConfig = topo.RailConfig
)

// Analysis outputs and the staged attribution pipeline.
type (
	// AnalyzerConfig parameterizes the Analyzer (set it in
	// Config.Analyzer); AnalyzerConfig.Workers shards the data-parallel
	// stages without changing any output bit.
	AnalyzerConfig = analyzer.Config
	// WindowReport is one 20-second analysis window's outcome.
	WindowReport = analyzer.WindowReport
	// SLA is one network's per-window drop/latency summary.
	SLA = analyzer.SLA
	// Problem is a detected-and-located problem with its P0/P1/P2
	// priority.
	Problem = analyzer.Problem
	// Priority is the impact triage level.
	Priority = analyzer.Priority
)

// Priorities.
const (
	P0 = analyzer.P0
	P1 = analyzer.P1
	P2 = analyzer.P2
)

// Workloads and faults.
type (
	// JobConfig parameterizes a DML training job.
	JobConfig = service.Config
	// Job is a running training job.
	Job = service.Job
	// Fault is one injectable root cause (Table 2).
	Fault = faultgen.Fault
	// Injector applies faults to a cluster.
	Injector = faultgen.Injector
)

// Telemetry ingest tier (the Kafka/Flink/DB slice of Fig 3). Every
// cluster has one: Agents upload into Cluster.Ingest, the Analyzer
// consumes from it and publishes per-window aggregates into Cluster.TSDB.
type (
	// Pipeline is the sharded, bounded ingest bus between Agents and the
	// Analyzer.
	Pipeline = pipeline.Pipeline
	// PipelineConfig tunes partitions, queue capacity, and the overload
	// policy (set it in Config.Pipeline).
	PipelineConfig = pipeline.Config
	// PipelineStats is the pipeline's self-metrics snapshot.
	PipelineStats = pipeline.Stats
	// OverloadPolicy selects what a full partition does: Block,
	// DropOldest, or DropNewest.
	OverloadPolicy = pipeline.Policy
	// TSDB is the bounded multi-resolution time-series store holding
	// per-window aggregates for historical queries.
	TSDB = tsdb.DB
	// TSDBConfig tunes the store's ring capacities and bucket steps (set
	// it in Config.TSDB).
	TSDBConfig = tsdb.Config
	// Point is one (time, value) sample returned by TSDB queries.
	Point = tsdb.Point
	// TSDBFollower is a read replica of a TSDB: it catches up via the
	// primary's mutation journal (or a snapshot once the journal has
	// evicted its span) and answers the full query interface
	// bit-identically to the primary. The ops console reads from a
	// follower so heavy query fan-out never contends with ingest.
	TSDBFollower = tsdb.Follower
)

// NewTSDBFollower builds an empty follower of a primary store; it
// converges on the first CatchUp.
func NewTSDBFollower(src *TSDB) *TSDBFollower { return tsdb.NewFollower(src) }

// Overload policies.
const (
	Block      = pipeline.Block
	DropOldest = pipeline.DropOldest
	DropNewest = pipeline.DropNewest
)

// Alerting & ops console (the console/alarm tier of Fig 3). Every
// cluster owns an AlertEngine at Cluster.Alerts, fed one report per
// analysis window; NewConsole fronts the whole deployment with the HTTP
// query/diagnostic API.
type (
	// AlertEngine folds per-window problems into long-lived incidents.
	AlertEngine = alert.Engine
	// AlertConfig tunes hysteresis, flap suppression, and notification
	// budgets (set it in Config.Alert).
	AlertConfig = alert.Config
	// Incident is one open → acked → resolved lifecycle, keyed by
	// (entity, problem class).
	Incident = alert.Incident
	// IncidentState is the lifecycle state.
	IncidentState = alert.State
	// IncidentSeverity is the P0/P1/P2-derived severity ladder.
	IncidentSeverity = alert.Severity
	// IncidentFilter selects incidents in AlertEngine.Incidents.
	IncidentFilter = alert.Filter
	// AlertEvent is one notified transition.
	AlertEvent = alert.Event
	// AlertNotifier receives lifecycle events (see alert.LogNotifier and
	// alert.MemNotifier for ready-made implementations).
	AlertNotifier = alert.Notifier
	// APIServer is the ops-console HTTP server.
	APIServer = api.Server
	// APIConfig tunes its listen address and timeouts.
	APIConfig = api.Config
	// APIBackend wires the server's data sources explicitly — NewConsole
	// fills it from a Cluster; standalone daemons assemble their own.
	APIBackend = api.Backend
	// StreamHub is the bounded fan-out bus behind /api/stream/*: one
	// publisher, many subscribers, per-subscriber queues that shed oldest
	// under pressure and evict chronically stalled readers — the
	// publisher never blocks.
	StreamHub = api.Hub
	// StreamHubConfig tunes per-subscriber queue depth, the eviction
	// threshold, and the long-poll replay ring (set it in
	// APIConfig.Stream).
	StreamHubConfig = api.HubConfig
	// StreamSubscriber is one hub subscription (see Hub.Subscribe).
	StreamSubscriber = api.Subscriber
	// APIAdmission ties API admission control to pipeline overload and
	// follower staleness: sheddable endpoints answer 429 + Retry-After
	// while either signal is unhealthy (set it in APIBackend.Admission).
	APIAdmission = api.Admission
	// TenantConfig declares one probe tenant for the controller's
	// deficit-round-robin scheduler (set Config.Tenants and
	// Config.TenantCapacityPPS).
	TenantConfig = controller.TenantConfig
	// TenantGrant is one tenant's scheduling outcome, served at
	// /api/tenants.
	TenantGrant = controller.TenantGrant
)

// ParseTenants parses a "-tenants"-style flag value: comma-separated
// name:weight or name:weight:maxpps entries, e.g. "gold:4,silver:2:250".
func ParseTenants(s string) ([]TenantConfig, error) { return controller.ParseTenants(s) }

// DRRGrants divides capacityPPS across tenant demands by weighted
// deficit round robin — exact, deterministic, max-min fair.
func DRRGrants(demands []float64, weights []int, capacityPPS float64) []float64 {
	return controller.DRRGrants(demands, weights, capacityPPS)
}

// Incident lifecycle states and severities.
const (
	IncidentOpen     = alert.StateOpen
	IncidentAcked    = alert.StateAcked
	IncidentResolved = alert.StateResolved

	SevMinor    = alert.SevMinor
	SevMajor    = alert.SevMajor
	SevCritical = alert.SevCritical
)

// NewConsole builds (without starting) the ops-console HTTP server over
// a cluster: incidents from Cluster.Alerts, window reports from the
// Analyzer, historical series from Cluster.TSDB, ingest self-metrics
// from Cluster.Ingest. A non-nil watchdog wires POST /api/diagnose/{host}
// to its §7.5 decision tree; with w == nil that endpoint answers 501.
func NewConsole(c *Cluster, w *Watchdog, cfg APIConfig) *APIServer {
	b := api.Backend{Windows: c.Analyzer, TSDB: c.TSDB, Pipeline: c.Ingest, Alerts: c.Alerts}
	if w != nil {
		b.Diagnose = func(host string) (any, error) {
			hid := topo.HostID(host)
			if _, ok := c.Topo.Hosts[hid]; !ok {
				return nil, api.ErrUnknownHost
			}
			type diagnosisJSON struct {
				Problem  Problem `json:"problem"`
				Cause    string  `json:"cause"`
				Evidence string  `json:"evidence"`
				Summary  string  `json:"summary"`
			}
			ds := w.DiagnoseHost(hid)
			out := make([]diagnosisJSON, len(ds))
			for i, d := range ds {
				out[i] = diagnosisJSON{
					Problem: d.Problem, Cause: d.Cause.String(),
					Evidence: d.Evidence, Summary: d.String(),
				}
			}
			return out, nil
		}
	}
	return api.New(b, cfg)
}

// Virtual time.
type Time = sim.Time

// Time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// New builds a cluster.
func New(cfg Config) (*Cluster, error) { return core.NewCluster(cfg) }

// BuildClos builds a 3-tier CLOS topology.
func BuildClos(cfg ClosConfig) (*Topology, error) { return topo.BuildClos(cfg) }

// BuildRailOptimized builds a 2-tier rail-optimized topology.
func BuildRailOptimized(cfg RailConfig) (*Topology, error) { return topo.BuildRailOptimized(cfg) }

// NewInjector builds a fault injector over a cluster.
func NewInjector(c *Cluster, seed int64) *Injector { return faultgen.NewInjector(c, seed) }

// QoSConfig is the lossless-fabric per-priority policy (DESIGN.md §12):
// N traffic classes per link with PFC pause/resume thresholds and
// headroom, a DSCP→class map, and a dedicated CNP priority. Set it as
// Config.Net.QoS; the zero value keeps the classic single-queue plane.
type QoSConfig = qos.Config

// QoSProfile returns the conventional n-class deployment policy: DSCP d
// rides class d>>3, CNPs on the top class.
func QoSProfile(n int) QoSConfig { return qos.Profile(n) }

// Switch-localizer selectors for Config.Localizer / AnalyzerConfig
// .Localizer: the paper's Algorithm 1 whole-vote tomography (default)
// or 007-style democratic per-flow voting (DESIGN.md §12).
const (
	LocalizerAlg1 = analyzer.LocalizerAlg1
	Localizer007  = analyzer.Localizer007
)

// Chaos/soak harness: the monitoring stack itself as the system under
// test. A ChaosScenario shakes a deterministic deployment (agent
// crashes, wire severs, pipeline floods, reader stalls, clock skew)
// while an invariant suite audits every analysis window; cmd/rpmesh-soak
// drives fleets of scenarios in CI.
type (
	// ChaosScenario configures one seeded chaos run; the Seed alone
	// determines the outcome.
	ChaosScenario = chaos.Scenario
	// ChaosResult is one scenario's outcome, including every invariant
	// violation and a determinism fingerprint.
	ChaosResult = chaos.Result
	// ChaosViolation is one invariant breach pinned to the analysis
	// window that exposed it.
	ChaosViolation = chaos.Violation
	// ChaosKind enumerates the monitoring-stack fault actions.
	ChaosKind = chaos.Kind
)

// RunChaos executes one seeded chaos scenario end to end.
func RunChaos(sc ChaosScenario) (*ChaosResult, error) { return chaos.Run(sc) }

// Federation tier (DESIGN.md §10): N peer controller/analyzer nodes,
// each probing its own pod shard, folding per-node problem votes into
// quorum-confirmed global incidents over a replicated round log with
// leader failover and log-replay reconciliation. ChaosScenario.FedNodes
// runs the chaos harness against a federated deployment.
type (
	// FedConfig tunes the federation: size, quorum, vote-overlap and
	// coverage horizons, heartbeat tolerance, signing secret.
	FedConfig = fed.Config
	// FedDeployConfig assembles an in-process federated deployment over
	// one simulated fabric.
	FedDeployConfig = fed.DeployConfig
	// FedDeploy is N federated nodes advancing in lockstep windows.
	FedDeploy = fed.Deploy
	// FedNode is one federation member: a full cluster over its pod
	// shard plus the coordination state (election, outbox, replica).
	FedNode = fed.Node
	// FedStepInfo reports one coordination step: window, committing
	// leader, per-node errors.
	FedStepInfo = fed.StepInfo
)

// NewFedDeploy builds an in-process federated deployment; Run or Step
// advance every node's cluster one analysis window and then coordinate
// (heartbeats, election, vote delivery, round commit).
func NewFedDeploy(cfg FedDeployConfig) (*FedDeploy, error) { return fed.NewDeploy(cfg) }

// Watchdog is the §7.5 counter-based early-warning extension.
type Watchdog = watchdog.Watchdog

// WatchdogConfig tunes the watchdog's sweep period and thresholds.
type WatchdogConfig = watchdog.Config

// NewWatchdog attaches the counter watchdog to a cluster (call Start on
// the result to begin sweeping).
func NewWatchdog(c *Cluster, cfg WatchdogConfig) *Watchdog { return watchdog.New(c, cfg) }

// Experiments returns the registry reproducing every table and figure of
// the paper's evaluation (see DESIGN.md for the index).
func Experiments() []experiments.Experiment { return experiments.All() }

// Experiment looks up one experiment by ID ("fig1" … "table2",
// "ablation-…").
func Experiment(id string) (experiments.Experiment, bool) { return experiments.ByID(id) }
