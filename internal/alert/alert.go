// Package alert is the console/alarm tier of the paper's Fig-3
// deployment: the monitoring console does not show raw per-window
// detections, it shows *incidents* — deduplicated, lifecycle-managed
// problem records an operator can acknowledge and that resolve themselves
// once the network is clean again.
//
// The Engine consumes the Analyzer's WindowReports (one per 20 s window)
// and folds every Problem into an incident keyed by (entity, problem
// class). The lifecycle is a small state machine:
//
//	      problem seen               ResolveAfter clean windows
//	──────────────► Open ──────────────────────────► Resolved
//	                 │ ▲                                 │
//	   acknowledge   │ │ problem seen again (reopen)     │
//	                 ▼ │◄────────────────────────────────┘
//	               Acked ──────────────────────────► Resolved
//
// with three production refinements on top:
//
//   - Hysteresis: an incident only auto-resolves after ResolveAfter
//     consecutive windows without its key — one quiet window is not a
//     fix.
//   - Flap suppression: a key that re-opens FlapThreshold times within
//     FlapWindow windows is an oscillating fault (a flapping cable, an
//     ECMP path that comes and goes). It stays ONE incident, keeps
//     counting flaps, and stops notifying until it archives — the
//     console shows a single flapping record instead of an alert storm.
//   - Severity from impact: the Analyzer's P0/P1/P2 service-impact
//     triage (§2.4) maps to Critical/Major/Minor. An incident escalates
//     the moment a worse-impact window arrives and de-escalates only
//     after DeescalateAfter consecutive milder windows.
//
// Every state transition is recorded on the incident (bounded) and
// emitted to the registered Notifiers under a per-severity per-window
// rate limit. Resolved incidents are retained for FlapWindow windows (so
// reopens collapse into them), then archived into a bounded history
// ring. The engine's clock is the report stream itself — virtual time in
// simulations, wall time in the live daemons — so a seeded deferred-mode
// simulation produces a bit-identical incident timeline every run.
package alert

import (
	"fmt"
	"log"
	"sync"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/sim"
)

// Severity is the console's triage level, ordered so that a numerically
// greater severity is more urgent.
type Severity int

const (
	// SevMinor mirrors P2: outside the service network; repair to
	// prevent future impact.
	SevMinor Severity = iota
	// SevMajor mirrors P1: inside the service network, impact below the
	// tolerance threshold.
	SevMajor
	// SevCritical mirrors P0: severe service impact, fix immediately.
	SevCritical

	// NumSeverities sizes per-severity arrays (rate-limit budgets).
	NumSeverities = 3
)

func (s Severity) String() string {
	switch s {
	case SevCritical:
		return "critical"
	case SevMajor:
		return "major"
	case SevMinor:
		return "minor"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// SeverityOf maps the Analyzer's impact priority to a console severity.
func SeverityOf(p analyzer.Priority) Severity {
	switch p {
	case analyzer.P0:
		return SevCritical
	case analyzer.P1:
		return SevMajor
	default:
		return SevMinor
	}
}

// State is an incident's lifecycle state.
type State int

const (
	// StateOpen: the problem is live and unacknowledged.
	StateOpen State = iota
	// StateAcked: an operator has taken ownership; the incident still
	// tracks windows and auto-resolves.
	StateAcked
	// StateResolved: ResolveAfter clean windows passed. The incident
	// lingers (for flap collapse) and then archives.
	StateResolved
)

func (s State) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateAcked:
		return "acked"
	case StateResolved:
		return "resolved"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Key identifies what an incident is about: one entity (device, host or
// link) suffering one class of problem. Every Problem in every window
// with the same key folds into the same incident.
type Key struct {
	Entity string
	Class  analyzer.ProblemKind
}

func (k Key) String() string { return fmt.Sprintf("%s/%s", k.Entity, k.Class) }

// KeyOf derives the incident key for a problem. Anchoring precedence is
// device, then host, then the most-suspicious link; service-tracing
// detections with no anchor fold into the one "service" entity.
func KeyOf(p analyzer.Problem) Key {
	k := Key{Class: p.Kind}
	switch {
	case p.Device != "":
		k.Entity = "dev:" + string(p.Device)
	case p.Host != "":
		k.Entity = "host:" + string(p.Host)
	case p.Kind == analyzer.ProblemSwitchLink:
		k.Entity = fmt.Sprintf("link:%d", int(p.Link))
	default:
		k.Entity = "service"
	}
	return k
}

// EventType labels a lifecycle transition.
type EventType int

const (
	EventOpen EventType = iota
	EventReopen
	EventEscalate
	EventDeescalate
	EventAck
	EventResolve
	EventSuppress
	EventArchive
)

func (e EventType) String() string {
	switch e {
	case EventOpen:
		return "open"
	case EventReopen:
		return "reopen"
	case EventEscalate:
		return "escalate"
	case EventDeescalate:
		return "deescalate"
	case EventAck:
		return "ack"
	case EventResolve:
		return "resolve"
	case EventSuppress:
		return "suppress"
	case EventArchive:
		return "archive"
	default:
		return fmt.Sprintf("event(%d)", int(e))
	}
}

// Transition is one recorded lifecycle step.
type Transition struct {
	Type     EventType
	Window   int // absolute analyzer window sequence number
	At       sim.Time
	Severity Severity
}

func (t Transition) String() string {
	return fmt.Sprintf("w%d %s (%s)", t.Window, t.Type, t.Severity)
}

// Incident is one deduplicated problem record. All fields are snapshots
// when returned by the Engine's accessors — mutating them is safe.
type Incident struct {
	ID       uint64
	Key      Key
	State    State
	Severity Severity
	// Suppressed marks a flapping incident: it keeps folding windows and
	// recording transitions but no longer notifies.
	Suppressed bool

	// Opens counts open+reopen transitions; Flaps counts just the
	// reopens (Opens-1 for a suppressed flapper).
	Opens int
	Flaps int
	// Count is the total number of problem observations folded in.
	Count int
	// Evidence is the largest per-window anomalous-probe evidence seen.
	Evidence int

	FirstWindow, LastWindow int
	FirstSeen, LastSeen     sim.Time
	ResolvedAt              sim.Time
	AckedBy                 string

	// Transitions is the bounded lifecycle log (oldest dropped first
	// once Config.MaxTransitions is exceeded; TransitionsDropped counts
	// the shed ones).
	Transitions        []Transition
	TransitionsDropped int
}

// Event is what Notifiers receive: the transition plus a snapshot of the
// incident after it.
type Event struct {
	Type     EventType
	Window   int
	At       sim.Time
	Incident Incident
}

func (e Event) String() string {
	return fmt.Sprintf("[w%d] %s incident #%d %s sev=%s",
		e.Window, e.Type, e.Incident.ID, e.Incident.Key, e.Incident.Severity)
}

// Notifier is the pluggable alarm sink (pager, chat hook, console
// stream). Notify is called synchronously from Observe with the engine
// lock held — implementations must not call back into the Engine and
// should return quickly.
type Notifier interface {
	Notify(Event)
}

// NotifierFunc adapts a function to the Notifier interface.
type NotifierFunc func(Event)

// Notify implements Notifier.
func (f NotifierFunc) Notify(e Event) { f(e) }

// LogNotifier writes one line per event to a standard logger — the
// daemons' default console stream.
type LogNotifier struct{ Logger *log.Logger }

// Notify implements Notifier.
func (n LogNotifier) Notify(e Event) {
	l := n.Logger
	if l == nil {
		l = log.Default()
	}
	l.Printf("alert: %s", e)
}

// MemNotifier records every event in memory — the test and example sink.
type MemNotifier struct {
	mu     sync.Mutex
	events []Event
}

// Notify implements Notifier.
func (n *MemNotifier) Notify(e Event) {
	n.mu.Lock()
	n.events = append(n.events, e)
	n.mu.Unlock()
}

// Events returns a copy of everything recorded so far.
func (n *MemNotifier) Events() []Event {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]Event(nil), n.events...)
}

// Len reports how many events were recorded.
func (n *MemNotifier) Len() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.events)
}
