package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"rpingmesh/internal/api"
	"rpingmesh/internal/core"
	"rpingmesh/internal/faultgen"
	"rpingmesh/internal/pipeline"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/qos"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
	"rpingmesh/internal/tsdb"
	"rpingmesh/internal/wire"
)

// maxViolations caps how many violations one scenario records — the
// first breach is the interesting one; the rest are usually cascade.
const maxViolations = 16

// harness is one scenario's live state: the cluster under test plus the
// bookkeeping every action and invariant reads.
type harness struct {
	sc     *Scenario
	c      *core.Cluster
	window sim.Time

	// Ops-console front door. Invariants drive it in-process through the
	// full middleware stack; with Scenario.APIReaders it is additionally
	// Started so real SSE sockets ride the listener. All range/quantile
	// reads go through a tsdb follower that catches up once per window.
	console  *api.Server
	follower *tsdb.Follower

	// ReaderStall's in-process stream-subscriber swarm: slow readers are
	// drained once per window (and must see every event in order);
	// stalled readers never read, so the hub must shed for them and
	// eventually evict them without ever blocking a publish.
	readers []*streamReader

	// Wire transport (Scenario.Wire only).
	srv *wire.Server
	cli *wire.Client

	inj *faultgen.Injector

	// Per-kind target-selection PRNGs, streams disjoint from the
	// schedule generator's.
	targets map[Kind]*rand.Rand

	crashed map[topo.HostID]bool

	stallActive bool
	floodSeq    uint64

	// Conservation tap: counts everything the pipeline delivered
	// downstream, independently of the pipeline's own accounting.
	tapBatches, tapResults uint64

	lastIndex  int
	violations []Violation

	goroutineBase, fdBase int
}

// violate records one invariant breach (capped).
func (h *harness) violate(name string, window int, format string, args ...any) {
	if len(h.violations) >= maxViolations {
		return
	}
	h.violations = append(h.violations, Violation{
		Invariant: name, Window: window, Detail: fmt.Sprintf(format, args...),
	})
}

// build wires the cluster, console, optional wire transport, and chaos
// bookkeeping for one scenario.
func build(sc *Scenario) (*harness, error) {
	pods := 1
	if sc.Shards > 1 {
		// Sharded runs need pod structure to partition along.
		pods = sc.Shards
	}
	tp, err := topo.BuildClos(topo.ClosConfig{
		Pods: pods, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2,
		HostsPerToR: sc.HostsPerToR, RNICsPerHost: 1,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: topology: %w", err)
	}
	h := &harness{
		sc:        sc,
		targets:   make(map[Kind]*rand.Rand),
		crashed:   make(map[topo.HostID]bool),
		lastIndex: -1,
	}
	for _, k := range AllKinds() {
		// Offset by NumKinds so target picks never replay the schedule
		// generator's stream.
		h.targets[k] = rand.New(rand.NewSource(kindSeed(sc.Seed, k+NumKinds)))
	}

	ccfg := core.Config{
		Topology:   tp,
		Seed:       sc.Seed,
		Shards:     sc.Shards,
		ShardEpoch: sc.ShardEpoch,
		Localizer:  sc.Localizer,
		Pipeline:   pipeline.Config{Policy: sc.Policy, Capacity: sc.Capacity},
		// Journal the primary so the console's follower can catch up by
		// delta instead of full snapshot every window.
		TSDB: tsdb.Config{JournalCapacity: 1 << 15},
	}
	if sc.QoSClasses > 1 {
		ccfg.Net.QoS = qos.Profile(sc.QoSClasses)
	}
	if sc.Wire {
		ccfg.WrapController = func(local proto.Controller) proto.Controller {
			h.srv, err = wire.Listen("127.0.0.1:0", local, nil)
			if err != nil {
				return local // surfaced below via h.srv == nil
			}
			h.cli, err = wire.Dial(h.srv.Addr())
			if err != nil {
				return local
			}
			return h.cli
		}
	}
	h.c, err = core.NewCluster(ccfg)
	if err != nil {
		return nil, fmt.Errorf("chaos: cluster: %w", err)
	}
	if sc.Wire && (h.srv == nil || h.cli == nil) {
		h.close()
		return nil, fmt.Errorf("chaos: wire transport failed to come up")
	}
	h.window = h.c.Analyzer.Window()

	h.c.TapRecords(func(b *proto.RecordBatch) {
		h.tapBatches++
		h.tapResults += uint64(b.Len())
	})

	// The console is exercised in-process; the slow-consumer notifier is
	// the ReaderStall payload (it runs inside the alert engine's critical
	// section, exactly like a sluggish pager integration). Historical
	// reads are served from a follower replica, and the stream hubs are
	// kept deliberately tiny so shed/evict actually fires within a run.
	h.follower = tsdb.NewFollower(h.c.TSDB)
	h.console = api.New(api.Backend{
		Windows: h.c.Analyzer, TSDB: h.follower, Pipeline: h.c.Ingest, Alerts: h.c.Alerts,
	}, api.Config{
		Addr:   "127.0.0.1:0",
		Stream: api.HubConfig{QueueCap: 2, EvictShed: 4, Replay: 16},
	})
	h.c.Alerts.AddNotifier(h.stallNotifier())
	h.c.Alerts.AddNotifier(h.console.AlertNotifier())

	if sc.NetworkFaults {
		h.inj = faultgen.NewInjector(h.c, sc.Seed+7)
	}
	return h, nil
}

// close tears down the real-OS resources (console listener + stream
// hubs, wire sockets); the simulated cluster needs no teardown.
func (h *harness) close() {
	if h.console != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = h.console.Shutdown(ctx)
		cancel()
	}
	if h.cli != nil {
		_ = h.cli.Close()
		h.cli = nil
	}
	if h.srv != nil {
		_ = h.srv.Close()
		h.srv = nil
	}
}

// countFDs reports open file descriptors (Linux; -1 elsewhere).
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// Run executes one scenario end to end and reports every invariant
// violation. The error return covers harness failures (topology, wire
// bring-up) only — invariant breaches land in Result.Violations.
func Run(sc Scenario) (*Result, error) {
	sc.setDefaults()
	if sc.FedNodes > 1 {
		return runFed(sc)
	}
	h, err := build(&sc)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			h.close()
		}
	}()

	// Leak baselines, captured after the wire transport is up so its
	// accept loop and session goroutines are part of the baseline. The
	// console listener and every API reader start *after* the baseline:
	// Shutdown must account for all of them or checkLeaks fails.
	h.goroutineBase = runtime.NumGoroutine()
	h.fdBase = countFDs()

	stopReaders := h.startReaders(sc.APIReaders)

	h.c.OnWindow(h.onWindow)
	h.c.StartAgents()

	events := generate(&sc, h.window)
	horizon := sim.Time(sc.Windows) * h.window
	for _, ev := range events {
		h.schedule(ev, horizon)
	}
	if sc.NetworkFaults {
		h.playNetworkFaults(horizon)
	}
	if sc.QoSFault != "" && sc.QoSClasses > 1 {
		h.playQoSFault(horizon)
	}

	h.c.Run(horizon)
	h.recover()
	h.c.Run(sim.Time(sc.RecoveryWindows) * h.window)
	h.checkRecovered()

	fingerprint := h.fingerprint()
	pstats := h.c.Ingest.Stats()

	// Leak checks run on a fully torn-down harness: readers stopped,
	// console hubs closed and streaming connections drained (the
	// Shutdown-drain contract under test), sockets closed.
	stopReaders()
	h.close()
	closed = true
	h.checkLeaks()

	return &Result{
		Scenario:    sc,
		Events:      events,
		Windows:     h.lastIndex + 1,
		Violations:  h.violations,
		Pipeline:    pstats,
		Fingerprint: fingerprint,
	}, nil
}

// playNetworkFaults composes a faultgen schedule underneath the chaos:
// the fabric misbehaves while the monitoring stack is being broken.
func (h *harness) playNetworkFaults(horizon sim.Time) {
	// Rates sized for a few events per run over a minutes-scale horizon.
	perHour := float64(sim.Hour) / float64(horizon) // ≈1 event per cause
	sched := h.inj.GenerateSchedule(faultgen.ScheduleConfig{
		Duration: horizon,
		EventsPerHour: map[faultgen.Cause]float64{
			faultgen.FlappingPort:      perHour,
			faultgen.PacketCorruption:  perHour,
			faultgen.RNICDown:          perHour * 2,
			faultgen.CPUOverload:       perHour,
			faultgen.UnevenLoadBalance: perHour,
		},
		MeanFaultDuration: 2 * h.window,
	})
	h.inj.Play(sched)
}

// recover unwinds anything still broken at the horizon so the recovery
// windows measure a system that is allowed to heal: restart crashed
// agents, clear lingering network faults. Scheduled unwinds are capped
// at the horizon, so this is a safety net, not the primary path.
func (h *harness) recover() {
	hosts := make([]topo.HostID, 0, len(h.crashed))
	for hid, down := range h.crashed {
		if down {
			hosts = append(hosts, hid)
		}
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	for _, hid := range hosts {
		h.restartAgent(hid)
	}
	if h.inj != nil {
		h.inj.ClearAll()
	}
}

// checkRecovered asserts the end-of-run health the soak story promises:
// every agent back up, the console still answering, the final window
// analyzed on schedule.
func (h *harness) checkRecovered() {
	win := h.lastIndex
	for hid, down := range h.crashed {
		if down {
			h.violate("recovery", win, "agent %s still down after recovery phase", hid)
		}
	}
	if err := h.console.Check("/healthz", 0); err != nil {
		h.violate("recovery", win, "post-recovery healthz: %v", err)
	}
	want := h.sc.Windows + h.sc.RecoveryWindows
	if got := h.c.Analyzer.TotalWindows(); got != want {
		h.violate("recovery", win, "analyzer ran %d windows, want %d", got, want)
	}
}

// checkLeaks compares goroutine and FD counts against the baselines.
// Goroutines get a settle loop: wire session handlers need a moment to
// observe their closed sockets.
func (h *harness) checkLeaks() {
	const slack = 2
	ok := false
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= h.goroutineBase+slack {
			ok = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !ok {
		h.violate("goroutine-leak", h.lastIndex, "goroutines %d > baseline %d+%d after teardown",
			runtime.NumGoroutine(), h.goroutineBase, slack)
	}
	if h.fdBase >= 0 {
		if fds := countFDs(); fds > h.fdBase+slack {
			h.violate("fd-leak", h.lastIndex, "fds %d > baseline %d+%d after teardown",
				fds, h.fdBase, slack)
		}
	}
}

// streamReader is one in-process hub subscriber from the ReaderStall
// swarm. Slow readers drain once per window and must observe strictly
// increasing sequence numbers; stalled readers never read at all.
type streamReader struct {
	sub     *api.Subscriber
	lastSeq uint64
	stalled bool
}

// maxSwarm bounds the ReaderStall swarm across repeated events.
const maxSwarm = 16

// spawnReaderSwarm subscribes a batch of stalled and slow readers to
// both stream hubs. Runs inside an engine callback, so subscribe order
// (and hence subscriber IDs within the swarm) is deterministic.
func (h *harness) spawnReaderSwarm() {
	for _, hub := range []*api.Hub{h.console.WindowStream(), h.console.IncidentStream()} {
		for _, stalled := range []bool{true, false} {
			if len(h.readers) >= maxSwarm {
				return
			}
			name := fmt.Sprintf("chaos-slow-%d", len(h.readers))
			if stalled {
				name = fmt.Sprintf("chaos-stalled-%d", len(h.readers))
			}
			sub := hub.Subscribe(name)
			if sub == nil {
				return // hubs already closed (teardown)
			}
			h.readers = append(h.readers, &streamReader{sub: sub, stalled: stalled})
		}
	}
}

// drainReaders advances every slow swarm reader to the live edge and
// checks delivery order: each must see strictly increasing seqs.
// Stalled readers are left alone — shedding for them is the point.
func (h *harness) drainReaders(win int) {
	for _, r := range h.readers {
		if r.stalled {
			continue
		}
		for {
			ev, ok := r.sub.TryNext()
			if !ok {
				break
			}
			if ev.Seq <= r.lastSeq {
				h.violate("stream-accounting", win,
					"slow reader %d delivered seq %d after %d (order violated)",
					r.sub.ID(), ev.Seq, r.lastSeq)
			}
			r.lastSeq = ev.Seq
		}
	}
}

// startReaders launches n concurrent console readers: in-process
// point-query and long-poll loops through the full middleware stack,
// plus up to 16 real SSE sockets over a live listener. The returned
// stop function halts the loops, shuts the console down (closing the
// hubs, which is what drains every SSE handler), and joins everything —
// it must run before checkLeaks. With n == 0 it only shuts the console
// down.
func (h *harness) startReaders(n int) (stop func()) {
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = h.console.Shutdown(ctx)
		cancel()
	}
	if n <= 0 {
		return shutdown
	}

	stopCh := make(chan struct{})
	var wg sync.WaitGroup

	// Bulk readers stay in-process: full middleware, no socket cost, so
	// thousands can run concurrently with the engine.
	paths := []string{
		"/api/stream/windows?since=0&wait_ms=5",
		"/api/stream/incidents?since=0&wait_ms=5",
		"/healthz", "/api/incidents", "/api/windows/latest",
		"/api/series", "/api/alerts/stats", "/api/pipeline/stats",
	}
	for i := 0; i < n; i++ {
		p := paths[i%len(paths)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopCh:
					return
				default:
				}
				// Status is deliberately ignored: 404 before the first
				// window is fine; what's under test is that concurrent
				// reads never wedge or leak. The pause keeps a 1000-reader
				// fleet from starving the engine of CPU.
				_ = h.console.Check(p, 0)
				time.Sleep(10 * time.Millisecond)
			}
		}()
	}

	// A capped set of real SSE sockets over the live listener. They exit
	// when Shutdown closes the hubs (handler returns → body EOF).
	client := &http.Client{Timeout: 30 * time.Second}
	if err := h.console.Start(); err == nil {
		sse := n
		if sse > 16 {
			sse = 16
		}
		streams := []string{"/api/stream/windows", "/api/stream/incidents"}
		for i := 0; i < sse; i++ {
			url := "http://" + h.console.Addr() + streams[i%len(streams)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := client.Get(url)
				if err != nil {
					return
				}
				defer resp.Body.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := resp.Body.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}

	return func() {
		close(stopCh)
		shutdown() // hub close is what unblocks the SSE readers
		wg.Wait()
		client.CloseIdleConnections()
	}
}

// fingerprint folds the run's observable outcomes into one line; two
// runs of the same Scenario must match bit for bit.
func (h *harness) fingerprint() string {
	ps := h.c.Ingest.Stats()
	as := h.c.Alerts.Stats()
	rep, _ := h.c.Analyzer.LastReport()
	return fmt.Sprintf("windows=%d pipe[in=%d out=%d del=%d drop=%d shed=%d waits=%d] alert[open=%d reopen=%d resolve=%d supp=%d] last[idx=%d probes=%d problems=%d] tap[b=%d r=%d] viol=%d",
		h.c.Analyzer.TotalWindows(),
		ps.Enqueued, ps.Dequeued, ps.Delivered, ps.Dropped(), ps.ResultsShed, ps.BlockWaits,
		as.Opened, as.Reopened, as.Resolved, as.Suppressed,
		rep.Index, rep.Cluster.Probes, len(rep.Problems),
		h.tapBatches, h.tapResults, len(h.violations))
}
