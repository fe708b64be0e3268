// Package watchdog implements the first of the paper's future-work
// directions (§7.5): monitor anomalous counters on RNICs and switch ports
// — CRC/corruption errors, flap transitions, PFC anomalies — to predict
// failing devices *before* probe-visible packet loss degrades a service,
// and recommend isolation or repair.
//
// The watchdog is deliberately advisory: it reads device and link
// counters every period and emits Advisories; acting on them (isolating a
// port, draining a host) stays with the operator, as the paper's triage
// philosophy demands (§2.4: fixing can itself hurt the service).
package watchdog

import (
	"fmt"
	"sort"

	"rpingmesh/internal/core"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/simnet"
	"rpingmesh/internal/topo"
)

// Advice is a recommendation kind.
type Advice int

const (
	// ReplaceCable: corruption counters rising on a device or link —
	// damaged fiber or dusty module (#2 before it kills throughput).
	ReplaceCable Advice = iota
	// IsolateDevice: repeated drops at one RNIC; take it out of pinglists
	// and service placement before a training task lands on it.
	IsolateDevice
	// InspectPFC: PFC-related blocking observed on a link.
	InspectPFC
)

func (a Advice) String() string {
	switch a {
	case ReplaceCable:
		return "replace-cable"
	case IsolateDevice:
		return "isolate-device"
	case InspectPFC:
		return "inspect-pfc"
	default:
		return fmt.Sprintf("advice(%d)", int(a))
	}
}

// Advisory is one early warning.
type Advisory struct {
	Advice Advice
	Device topo.DeviceID // set for device-scoped advisories
	Link   topo.LinkID   // set for link-scoped advisories
	// Delta is the offending counter increase over the last period.
	Delta int64
	At    sim.Time
}

func (a Advisory) String() string {
	where := string(a.Device)
	if where == "" {
		where = fmt.Sprintf("link %d", a.Link)
	}
	return fmt.Sprintf("[%v] %s at %s (+%d in period)", a.At, a.Advice, where, a.Delta)
}

// Config tunes the watchdog.
type Config struct {
	// Period between counter sweeps. Defaults to 30 s.
	Period sim.Time
	// CorruptDropsPerPeriod triggers ReplaceCable/IsolateDevice advisories.
	// Defaults to 10.
	CorruptDropsPerPeriod int64
	// PFCDropsPerPeriod triggers InspectPFC. Defaults to 10.
	PFCDropsPerPeriod int64
}

func (c *Config) setDefaults() {
	if c.Period <= 0 {
		c.Period = 30 * sim.Second
	}
	if c.CorruptDropsPerPeriod <= 0 {
		c.CorruptDropsPerPeriod = 10
	}
	if c.PFCDropsPerPeriod <= 0 {
		c.PFCDropsPerPeriod = 10
	}
}

// Watchdog sweeps cluster counters.
type Watchdog struct {
	c   *core.Cluster
	cfg Config

	lastDev  map[topo.DeviceID]int64 // RxDropsCorrupt snapshot
	lastLink map[topo.LinkID]map[simnet.DropCause]int64

	advisories []Advisory
	ticker     *sim.Ticker
}

// New attaches a watchdog to a cluster (it does not start sweeping until
// Start).
func New(c *core.Cluster, cfg Config) *Watchdog {
	cfg.setDefaults()
	return &Watchdog{
		c:        c,
		cfg:      cfg,
		lastDev:  make(map[topo.DeviceID]int64),
		lastLink: make(map[topo.LinkID]map[simnet.DropCause]int64),
	}
}

// Start begins periodic sweeps.
func (w *Watchdog) Start() {
	if w.ticker != nil {
		return
	}
	w.sweep() // baseline snapshot
	w.advisories = nil
	w.ticker = w.c.Eng.Every(w.cfg.Period, w.cfg.Period, w.sweep)
}

// Stop halts sweeping.
func (w *Watchdog) Stop() {
	if w.ticker != nil {
		w.ticker.Stop()
		w.ticker = nil
	}
}

func (w *Watchdog) raise(a Advisory) {
	a.At = w.c.Eng.Now()
	w.advisories = append(w.advisories, a)
}

func (w *Watchdog) sweep() {
	// Device counters: rising corruption drops predict a failing cable
	// long before the 10 % probe-timeout threshold fires.
	devs := w.c.Topo.AllRNICs()
	for _, id := range devs {
		dev := w.c.Device(id)
		if dev == nil {
			continue
		}
		cur := dev.Counters.RxDropsCorrupt
		delta := cur - w.lastDev[id]
		w.lastDev[id] = cur
		if delta >= w.cfg.CorruptDropsPerPeriod {
			w.raise(Advisory{Advice: ReplaceCable, Device: id, Delta: delta})
		}
	}

	// Link counters, in a deterministic order.
	linkIDs := make([]topo.LinkID, len(w.c.Topo.Links))
	for i, l := range w.c.Topo.Links {
		linkIDs[i] = l.ID
	}
	sort.Slice(linkIDs, func(i, j int) bool { return linkIDs[i] < linkIDs[j] })
	for _, id := range linkIDs {
		st := w.c.Net.Stats(id)
		prev, ok := w.lastLink[id]
		if !ok {
			prev = make(map[simnet.DropCause]int64)
			w.lastLink[id] = prev
		}
		corrupt := st.Drops[simnet.DropCorrupt] - prev[simnet.DropCorrupt]
		pfc := st.Drops[simnet.DropPFC] - prev[simnet.DropPFC]
		flap := st.Drops[simnet.DropLinkDown] - prev[simnet.DropLinkDown]
		prev[simnet.DropCorrupt] = st.Drops[simnet.DropCorrupt]
		prev[simnet.DropPFC] = st.Drops[simnet.DropPFC]
		prev[simnet.DropLinkDown] = st.Drops[simnet.DropLinkDown]

		if corrupt >= w.cfg.CorruptDropsPerPeriod {
			w.raise(Advisory{Advice: ReplaceCable, Link: id, Delta: corrupt})
		}
		if pfc >= w.cfg.PFCDropsPerPeriod {
			w.raise(Advisory{Advice: InspectPFC, Link: id, Delta: pfc})
		}
		// A flapping host cable is device-scoped advice.
		if flap >= w.cfg.CorruptDropsPerPeriod {
			l := w.c.Topo.Links[id]
			if _, isRNIC := w.c.Topo.RNICs[l.From]; isRNIC {
				w.raise(Advisory{Advice: IsolateDevice, Device: l.From, Delta: flap})
			} else if _, isRNIC := w.c.Topo.RNICs[l.To]; isRNIC {
				w.raise(Advisory{Advice: IsolateDevice, Device: l.To, Delta: flap})
			}
		}
	}
}
