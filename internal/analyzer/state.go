package analyzer

import (
	"sort"
	"sync"

	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// Cause is the per-result attribution a window's stages agree on. The
// zero value (CauseOK) means the probe completed or was never anomalous.
type Cause int

const (
	CauseOK Cause = iota
	// CauseHostDown: timeout toward a host that stopped uploading.
	CauseHostDown
	// CauseQPNReset: timeout whose target QPN no longer matches the
	// Controller registry (agent restarted — probe noise).
	CauseQPNReset
	// CauseCPUNoise: timeout explained by the service occupying the
	// target Agent's CPU (§6 false-positive fix).
	CauseCPUNoise
	// CauseRNIC: timeout attributed to an anomalous RNIC.
	CauseRNIC
	// CauseSwitch: timeout left for switch localization.
	CauseSwitch
)

func (c Cause) String() string {
	switch c {
	case CauseOK:
		return "ok"
	case CauseHostDown:
		return "host-down"
	case CauseQPNReset:
		return "qpn-reset"
	case CauseCPUNoise:
		return "cpu-noise"
	case CauseRNIC:
		return "rnic"
	case CauseSwitch:
		return "switch"
	default:
		return "unknown"
	}
}

// windowState is the unit of work one analysis window's stages share.
// Now and Recs are immutable inputs — stages must not modify records.
// Causes and Report accumulate: each stage reads what earlier stages
// established and adds its own attribution or problems.
type windowState struct {
	// Now is the instant the window closed.
	Now sim.Time
	// Recs holds every probe record uploaded during the window, in the
	// flat columnar layout; stages consume it by index (Recs.Len,
	// Recs.RouteAt, the column accessors).
	Recs *proto.Records
	// LastUpload is the per-host last-upload instant snapshotted when the
	// window closed (hostDownFilter's input).
	LastUpload map[topo.HostID]sim.Time
	// Causes is the per-record attribution, parallel to Recs.
	Causes []Cause
	// Report is the window's accumulating outcome.
	Report *WindowReport

	// downHosts is the sorted set of hosts classified down this window.
	// hostDownFilter fills it; rnicDetect emits the ProblemHostDown
	// entries (after the RNIC problems, preserving the report order).
	downHosts []topo.HostID
}

// workers reports the shard count for the parallelizable stages.
func (a *Analyzer) workers() int {
	if a.cfg.Workers > 1 {
		return a.cfg.Workers
	}
	return 1
}

// runSharded fans fn out over n workers and waits for all of them. With
// n <= 1 it calls fn(0) inline — the fully deterministic single-thread
// path seeded simulations run on.
func runSharded(n int, fn func(worker int)) {
	if n <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

func sortedHosts(set map[topo.HostID]bool) []topo.HostID {
	out := make([]topo.HostID, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
