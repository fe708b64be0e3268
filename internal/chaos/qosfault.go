package chaos

import (
	"fmt"
	"strings"

	"rpingmesh/internal/ecmp"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/simnet"
)

// QoS fault families: fabric-level multi-class pathologies played
// underneath the monitoring-stack chaos when the scenario enables a
// multi-class fabric (Scenario.QoSClasses > 1). Each family is the
// seeded, deterministic version of one production incident shape from
// the lossless-RoCE literature.
const (
	// QoSFaultPFCStorm incasts storage-class traffic until PFC pause
	// propagates upstream — the paper's PFC storm, scoped to one class.
	QoSFaultPFCStorm = "pfc-storm"
	// QoSFaultDSCPMismap remaps the GPU DSCP onto the storage class
	// mid-run (a switch QoS config error), so GPU traffic inherits the
	// storage class's congestion and pauses.
	QoSFaultDSCPMismap = "dscp-mismap"
	// QoSFaultCNPStarve congests the CNP priority itself, delaying every
	// flow's congestion feedback.
	QoSFaultCNPStarve = "cnp-starve"
	// QoSFaultIncast drives a mixed storage+GPU incast onto one host.
	QoSFaultIncast = "incast"
)

// QoSFaultKinds lists every QoS fault family in rotation order.
func QoSFaultKinds() []string {
	return []string{QoSFaultPFCStorm, QoSFaultDSCPMismap, QoSFaultCNPStarve, QoSFaultIncast}
}

// ParseQoSFault validates a QoS fault family name ("" = none).
func ParseQoSFault(s string) (string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return "", nil
	}
	for _, k := range QoSFaultKinds() {
		if k == s {
			return k, nil
		}
	}
	return "", fmt.Errorf("chaos: unknown qos fault %q (want %s)",
		s, strings.Join(QoSFaultKinds(), ","))
}

// qosDSCPs derives the scenario's class markings from its class count:
// storage rides class 1, GPU the next class up, CNPs the top class.
func qosDSCPs(classes int) (storage, gpu, cnp uint8) {
	storage = 8
	gpu = 8 * uint8(classes-2)
	if classes == 2 {
		gpu = 8 // two classes: storage and GPU share class 1
	}
	cnp = 8 * uint8(classes-1)
	return
}

// playQoSFault schedules the scenario's QoS fault family: onset after
// the first analysis window, unwound two windows before the horizon so
// the pre-recovery windows already observe a healing fabric.
func (h *harness) playQoSFault(horizon sim.Time) {
	onset := h.window
	clear := horizon - 2*h.window
	if clear <= onset {
		clear = onset + h.window
	}
	storageDSCP, gpuDSCP, cnpDSCP := qosDSCPs(h.sc.QoSClasses)

	tp := h.c.Topo
	victims := tp.RNICsUnderToR("tor-0-1")
	sources := tp.RNICsUnderToR("tor-0-0")
	dst := victims[0]

	addIncast := func(at, until sim.Time, dscp uint8, demand float64, portBase uint16) {
		h.c.Eng.At(at, func() {
			var ids []simnet.FlowID
			for i, s := range sources {
				f, err := h.c.Net.AddFlow(simnet.FlowSpec{
					Src: s, Dst: dst,
					Tuple:      ecmp.RoCETuple(tp.RNICs[s].IP, tp.RNICs[dst].IP, portBase+uint16(i)),
					DemandGbps: demand, DSCP: dscp,
				})
				if err != nil {
					continue
				}
				ids = append(ids, f.ID)
			}
			h.c.Eng.At(until, func() {
				for _, id := range ids {
					h.c.Net.RemoveFlow(id)
				}
			})
		})
	}

	switch h.sc.QoSFault {
	case QoSFaultPFCStorm:
		// Enough storage demand to pin the victim downlink past XOff and
		// hold it there: pause frames must climb toward the sources.
		addIncast(onset, clear, storageDSCP, 400, 41000)
	case QoSFaultDSCPMismap:
		storageClass := h.c.Net.ClassOf(storageDSCP)
		gpuClass := h.c.Net.ClassOf(gpuDSCP)
		addIncast(onset, clear, storageDSCP, 400, 42000)
		h.c.Eng.At(onset, func() { h.c.Net.RemapDSCP(gpuDSCP, storageClass) })
		h.c.Eng.At(clear, func() { h.c.Net.RemapDSCP(gpuDSCP, gpuClass) })
	case QoSFaultCNPStarve:
		// Congest the CNP priority itself alongside a storage incast:
		// feedback for the storage flows arrives late or not at all.
		addIncast(onset, clear, storageDSCP, 300, 43000)
		addIncast(onset, clear, cnpDSCP, 400, 43500)
	case QoSFaultIncast:
		addIncast(onset, clear, storageDSCP, 250, 44000)
		addIncast(onset, clear, gpuDSCP, 250, 44500)
	}
}
