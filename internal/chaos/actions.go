package chaos

import (
	"rpingmesh/internal/alert"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// schedule arms one chaos event on the simulation engine: the action is
// applied at ev.At and unwound at min(ev.At+ev.Duration, horizon), so
// nothing is left broken when the recovery phase begins. All PRNG draws
// happen here, at scheduling time in sorted-event order, never inside
// engine callbacks — playback order can then never perturb the streams.
func (h *harness) schedule(ev Event, horizon sim.Time) {
	end := ev.At + ev.Duration
	if end > horizon {
		end = horizon
	}
	eng := h.c.Eng
	switch ev.Kind {
	case AgentCrash:
		hid := h.pickHost(AgentCrash)
		eng.At(ev.At, func() { h.crashAgent(hid) })
		eng.At(end, func() { h.restartAgent(hid) })

	case WireSever:
		if !h.sc.Wire {
			return // no wire transport in this scenario; nothing to sever
		}
		// Repeated severs across the event window: every Upload/Pinglists
		// call in between forces a fresh redial, the §4.1 Controller-
		// restart survivability story.
		for t := ev.At; t < end; t += h.window / 2 {
			eng.At(t, func() {
				if h.srv != nil {
					h.srv.DisconnectAll()
				}
			})
		}

	case PipelineFlood:
		// Same-host bursts within a single engine callback: in deferred
		// mode every upload arms a drain, so only an intra-callback burst
		// larger than the partition capacity can actually overflow it and
		// force the overload policy to engage.
		burst := 2 * h.sc.Capacity
		for t := ev.At; t < end; t += h.window / 4 {
			eng.At(t, func() { h.flood(burst) })
		}

	case ReaderStall:
		eng.At(ev.At, func() {
			h.stallActive = true
			// Each stall event also grows the stream-subscriber swarm:
			// stalled readers that never drain (the hub must shed and
			// eventually evict them without blocking a publish) next to
			// slow ones drained once per window.
			h.spawnReaderSwarm()
		})
		eng.At(end, func() { h.stallActive = false })

	case ClockSkew:
		hid := h.pickHost(ClockSkew)
		atClocks := h.drawClocks(hid)
		endClocks := h.drawClocks(hid)
		eng.At(ev.At, func() { h.skewHost(hid, atClocks) })
		eng.At(end, func() { h.skewHost(hid, endClocks) })

	case NodePartition, CoordinatorKill, VoteDelay:
		// Federation faults: the fed harness schedules these (fed.go); on
		// a single-node scenario there is nothing to partition or depose.
		return
	}
}

// pickHost draws a target host from the kind's own PRNG stream.
func (h *harness) pickHost(k Kind) topo.HostID {
	hosts := h.c.Topo.AllHosts() // sorted — stable across runs
	return hosts[h.targets[k].Intn(len(hosts))]
}

// crashAgent stops a host's Agent mid-flight: tickers halted, QPs
// destroyed, in-flight probes abandoned. Idempotent under overlapping
// crash events on the same host.
func (h *harness) crashAgent(hid topo.HostID) {
	if h.crashed[hid] {
		return
	}
	h.crashed[hid] = true
	h.c.Agent(hid).Stop()
}

// restartAgent brings a crashed Agent back with fresh QPNs (§4.3.1's
// QPN-reset noise source for everyone still probing the old ones).
func (h *harness) restartAgent(hid topo.HostID) {
	if !h.crashed[hid] {
		return
	}
	h.crashed[hid] = false
	if err := h.c.Agent(hid).Restart(); err != nil {
		h.violate("recovery", h.lastIndex, "agent %s restart: %v", hid, err)
	}
}

// flood bursts n batches from a dedicated pseudo-host straight into the
// ingest pipeline. One host ⇒ one partition (FNV-1a PartitionKey), so the
// burst is guaranteed to pile onto a single queue. The batches carry no
// probe results: the analyzer ignores them (a host that is never a probe
// target trips no host-down logic) while every pipeline counter still
// moves, which is exactly what the accounting invariant wants stressed.
func (h *harness) flood(n int) {
	for i := 0; i < n; i++ {
		h.floodSeq++
		h.c.UploadRecords(&proto.RecordBatch{
			Host: "chaos-flood",
			Sent: h.c.Eng.Now(),
			Seq:  h.floodSeq,
		})
	}
}

// drawClocks draws a replacement clock for the host CPU and each of its
// devices from the ClockSkew stream (offset uniform in ±10 s, drift-free
// — drift is the fabric simulation's own dimension).
func (h *harness) drawClocks(hid topo.HostID) []rnic.Clock {
	rng := h.targets[ClockSkew]
	n := 1 + len(h.c.Topo.Hosts[hid].RNICs)
	clocks := make([]rnic.Clock, n)
	for i := range clocks {
		off := sim.Time(rng.Int63n(int64(20*sim.Second)+1)) - 10*sim.Second
		clocks[i] = rnic.Clock{Offset: off}
	}
	return clocks
}

// skewHost steps the host CPU clock and every device clock to the given
// replacements (NTP step / VM migration mid-run). Probes in flight keep
// their old send timestamps — the analyzer's clock algebra has to cope.
func (h *harness) skewHost(hid topo.HostID, clocks []rnic.Clock) {
	node := h.c.Host(hid)
	node.Host.SetClock(clocks[0])
	for i, dev := range h.c.Topo.Hosts[hid].RNICs {
		node.Devices[dev].SetClock(clocks[1+i])
	}
}

// stallNotifier is the ReaderStall payload: a pathologically slow alert
// consumer that grinds through full-horizon tsdb scans on every
// notification. It runs inside the alert engine's notification path (the
// engine's critical section), like a sluggish pager integration — so it
// must only touch the tsdb, never call back into the alert engine, which
// would self-deadlock.
func (h *harness) stallNotifier() alert.Notifier {
	return alert.NotifierFunc(func(alert.Event) {
		if !h.stallActive {
			return
		}
		for _, name := range h.c.TSDB.Series() {
			_ = h.c.TSDB.Range(name, 0, h.c.Eng.Now())
		}
	})
}
