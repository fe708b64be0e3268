package simnet

// Per-priority (QoS) data plane. With Config.QoS enabled every directed
// link carries N class queues (internal/qos) instead of the single fluid
// queue: strict-priority egress service, per-class PFC pause with XOff/XOn
// hysteresis and upstream propagation, per-class ECN, and CNP congestion
// feedback riding its own priority so congestion control sees
// class-dependent delay. With QoS disabled (the default) none of this
// code runs and the classic single-queue path is bit-identical.

import (
	"sort"

	"rpingmesh/internal/qos"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// flowMark is one tick's ECN verdict in flight back to the sender as a
// (possibly delayed) CNP.
type flowMark struct {
	due    int64 // tick index at which the feedback reaches the sender
	marked bool
}

// maxPendingMarks bounds the in-flight CNP ring; under extreme CNP-class
// starvation the oldest notifications are simply lost, as real CNPs are.
const maxPendingMarks = 64

func (f *Flow) queueMark(due int64, marked bool) {
	if len(f.marks) >= maxPendingMarks {
		f.marks = f.marks[1:]
	}
	f.marks = append(f.marks, flowMark{due: due, marked: marked})
}

// takeMarks pops every mark due by tick now, ORing their verdicts. ok is
// false when no feedback arrived this tick (CNPs still in flight — the
// sender sees silence and keeps increasing).
func (f *Flow) takeMarks(now int64) (marked, ok bool) {
	kept := f.marks[:0]
	for _, m := range f.marks {
		if m.due <= now {
			ok = true
			marked = marked || m.marked
		} else {
			kept = append(kept, m)
		}
	}
	f.marks = kept
	return marked, ok
}

// initQoS resolves the QoS config against the topology. Called from New
// after all RNG draws so the disabled path stays bit-identical.
func (n *Net) initQoS() {
	if !n.cfg.QoS.Enabled() {
		return
	}
	if err := n.cfg.QoS.Validate(); err != nil {
		panic(err)
	}
	n.qos = qos.NewState(n.cfg.QoS, len(n.topo.Links), n.cfg.MaxQueueBytes, n.cfg.ECNThresholdBytes)
	nc := n.qos.Classes()
	n.qosDevIdx = make(map[topo.DeviceID]int)
	for _, l := range n.topo.Links {
		for _, d := range [2]topo.DeviceID{l.From, l.To} {
			if _, ok := n.qosDevIdx[d]; !ok {
				n.qosDevIdx[d] = len(n.devAssert)
				n.devAssert = append(n.devAssert, make([]bool, nc))
				n.devWait = append(n.devWait, make([]sim.Time, nc))
			}
		}
	}
}

// ClassOf maps a DSCP codepoint to its traffic class (0 when disabled).
func (n *Net) ClassOf(dscp uint8) int {
	if n.qos == nil {
		return 0
	}
	return n.qos.ClassOf(dscp)
}

// ClassQueueBytesOn reports one class's queue depth on a directed link.
func (n *Net) ClassQueueBytesOn(l topo.LinkID, c int) float64 {
	if n.qos == nil {
		if c == 0 {
			return n.links[l].queueBytes
		}
		return 0
	}
	return n.qos.Ports[l].Bytes[c]
}

// RemapDSCP rebinds a DSCP codepoint to a different class mid-run — the
// mis-mapped-DSCP misconfiguration fault. No-op with QoS disabled.
func (n *Net) RemapDSCP(dscp uint8, class int) {
	if n.qos == nil {
		return
	}
	n.qos.Remap(dscp, class)
}

// classDelay is the per-hop delay of one class on a link: standing
// extraDelay, drain time of every queue at or above the class's priority
// (strict-priority service means lower classes wait behind higher ones),
// and the residual pause wait when the class egress is PFC-paused.
func (n *Net) classDelay(l topo.LinkID, c int) sim.Time {
	ls := n.links[l]
	p := &n.qos.Ports[l]
	d := ls.extraDelay
	bytes := 0.0
	for cc := c; cc < n.qos.Classes(); cc++ {
		bytes += p.Bytes[cc]
	}
	if bytes > 0 {
		d += sim.Time(bytes * 8 / (ls.link.CapacityGbps * 1e9) * 1e9)
	}
	if p.Paused[c] {
		d += p.PauseWait[c]
	}
	return d
}

// sortedFlows returns the live flows in FlowID order — the QoS tick
// iterates flows several times and must do so deterministically.
func (n *Net) sortedFlows() []*Flow {
	out := make([]*Flow, 0, len(n.flows))
	for _, f := range n.flows {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// tickQoS advances the per-priority fluid model by one step. Same physics
// as tick() — desired rates, capacity scaling, queue integration, CC —
// but per (link, class), with strict-priority service, PFC pause
// propagation, and CNP feedback delayed by its own class's state.
func (n *Net) tickQoS() {
	dt := n.cfg.Tick.Seconds()
	q := n.qos
	nc := q.Classes()
	flows := n.sortedFlows()

	// Phase 1: desired rate per flow — same blocked/loss physics as the
	// classic model. PFC pause is NOT a loss signal: a paused flow keeps
	// transmitting up to the paused port and its bytes queue there
	// losslessly (phase 2 handles the truncation).
	for _, f := range flows {
		f.blocked = false
		for _, end := range [2]topo.DeviceID{f.Spec.Src, f.Spec.Dst} {
			if dev, ok := n.devs[end]; ok && (!dev.Up() || dev.Misconfigured()) {
				f.blocked = true
			}
		}
		worstLoss := 0.0
		for _, l := range f.Path {
			if f.blocked {
				break
			}
			ls := n.links[l]
			if ls.down || ls.pfcBlocked {
				f.blocked = true
				break
			}
			if n.eng.Now() < ls.unstableUntil {
				worstLoss = max(worstLoss, 0.05)
			}
			if ls.dropProb > worstLoss {
				worstLoss = ls.dropProb
			}
			if ls.badHeadroom && q.Ports[l].Bytes[f.class] > 0.85*q.Params(f.class).MaxBytes {
				worstLoss = max(worstLoss, 0.02)
			}
		}
		desired := f.Spec.DemandGbps
		if f.cc != nil {
			desired = min(desired, f.ccRate)
		}
		if f.blocked {
			desired = 0
		} else {
			desired *= lossCollapseFactor(worstLoss)
		}
		f.rate = desired
	}

	// Phase 2: per-(link,class) offered load. A flow contributes only up
	// to and including the FIRST link whose egress is paused for its
	// class: bytes pile into that port's queue (where they will push it
	// past XOff and pause the next device up — hop-by-hop backpressure)
	// and nothing crosses it. Flows then scale down by the most-congested
	// link on their offered prefix exactly as the classic model does.
	for li := range n.links {
		p := &q.Ports[li]
		for c := 0; c < nc; c++ {
			p.Offered[c] = 0
		}
	}
	for _, f := range flows {
		f.pauseIdx = -1
		for i, l := range f.Path {
			if q.Ports[l].Paused[f.class] {
				f.pauseIdx = i
				break
			}
		}
		limit := len(f.Path)
		if f.pauseIdx >= 0 {
			limit = f.pauseIdx + 1
		}
		for _, l := range f.Path[:limit] {
			q.Ports[l].Offered[f.class] += f.rate
		}
	}
	for li, ls := range n.links {
		t := 0.0
		for c := 0; c < nc; c++ {
			t += q.Ports[li].Offered[c]
		}
		ls.offeredGbps = t
	}
	for _, f := range flows {
		limit := len(f.Path)
		if f.pauseIdx >= 0 {
			limit = f.pauseIdx + 1
		}
		scale := 1.0
		for _, l := range f.Path[:limit] {
			ls := n.links[l]
			if ls.offeredGbps > ls.link.CapacityGbps {
				scale = min(scale, ls.link.CapacityGbps/ls.offeredGbps)
			}
		}
		f.rate *= scale
		if f.pauseIdx >= 0 {
			// Nothing is delivered end-to-end while the class is held.
			f.rate = 0
		}
	}

	// Phase 3: strict-priority queue integration. Higher class index is
	// higher priority (CNP rides the top class): each class is served from
	// whatever capacity the classes above left over, a paused class is not
	// served at all, and leftover service drains standing queues.
	for li, ls := range n.links {
		p := &q.Ports[li]
		avail := ls.link.CapacityGbps
		for c := nc - 1; c >= 0; c-- {
			prm := q.Params(c)
			if p.Paused[c] {
				q.Integrate(p, c, p.Offered[c]*dt*1e9/8, ls.badHeadroom)
				p.Ecn[c] = p.Bytes[c] > prm.ECNBytes
				continue
			}
			served := p.Offered[c]
			if served > avail {
				served = avail
			}
			excess := (p.Offered[c] - served) * dt * 1e9 / 8
			avail -= served
			if excess > 0 {
				q.Integrate(p, c, excess, ls.badHeadroom)
			} else if p.Bytes[c] > 0 && avail > 0 {
				drain := min(p.Bytes[c], avail*dt*1e9/8)
				p.Bytes[c] -= drain
				avail -= drain * 8 / (dt * 1e9)
			}
			p.Ecn[c] = p.Bytes[c] > prm.ECNBytes
		}
		ls.queueBytes = p.Total()
		ls.ecn = ls.queueBytes > n.cfg.ECNThresholdBytes
	}

	// Phase 3b: PFC pause propagation. Ports apply XOff/XOn hysteresis;
	// a device asserts pause upstream for class c when ANY of its egress
	// ports asserts c; every link INTO that device then holds c next tick,
	// inheriting the worst drain-to-XOn wait. Multi-hop propagation
	// emerges tick over tick: a paused egress backs up its own queue,
	// crosses XOff, and pauses the next device up — the storm mechanism.
	for di := range n.devAssert {
		for c := 0; c < nc; c++ {
			n.devAssert[di][c] = false
			n.devWait[di][c] = 0
		}
	}
	for li, ls := range n.links {
		p := &q.Ports[li]
		q.UpdateAssert(p)
		di := n.qosDevIdx[ls.link.From]
		for c := 0; c < nc; c++ {
			if !p.Asserting[c] {
				continue
			}
			n.devAssert[di][c] = true
			if w := q.DrainWait(p, c, ls.link.CapacityGbps); w > n.devWait[di][c] {
				n.devWait[di][c] = w
			}
		}
	}
	for li, ls := range n.links {
		p := &q.Ports[li]
		di := n.qosDevIdx[ls.link.To]
		for c := 0; c < nc; c++ {
			p.Paused[c] = n.devAssert[di][c]
			p.PauseWait[c] = n.devWait[di][c]
		}
	}

	// Phase 4: congestion control under class-dependent CNP delay. The
	// ECN verdict computed this tick travels back as a CNP on its own
	// priority; its transit time is that class's queueing plus pause wait
	// along the path. A healthy CNP class delivers next tick; a congested
	// or paused one delivers late — or never, and the sender keeps
	// increasing into the storm (the CNP-starvation pathology).
	cnp := q.CNPClass()
	for _, f := range flows {
		if f.cc == nil {
			continue
		}
		marked := false
		for _, l := range f.Path {
			if q.Ports[l].Ecn[f.class] {
				marked = true
				break
			}
		}
		delaySec := 0.0
		for _, l := range f.Path {
			ls := n.links[l]
			p := &q.Ports[l]
			delaySec += p.Bytes[cnp] * 8 / (ls.link.CapacityGbps * 1e9)
			if p.Paused[cnp] {
				delaySec += p.PauseWait[cnp].Seconds()
			}
		}
		f.queueMark(n.tickCount+1+int64(delaySec/dt), marked)
		ecn, ok := f.takeMarks(n.tickCount)
		if !ok {
			ecn = false
		}
		f.ccRate = f.cc.Update(max(f.ccRate, 0.1), ecn, dt)
	}
	n.tickCount++
}
