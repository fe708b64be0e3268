package alert

import (
	"fmt"
	"sort"
	"sync"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/sim"
)

// Config tunes the lifecycle engine; zero values take the defaults.
type Config struct {
	// ResolveAfter is the hysteresis: consecutive clean windows before
	// an incident auto-resolves (default 3).
	ResolveAfter int
	// DeescalateAfter is the number of consecutive windows the key must
	// present at a milder severity before the incident de-escalates
	// (default 3). Escalation is immediate.
	DeescalateAfter int
	// FlapThreshold is the open+reopen count within FlapWindow windows
	// at which an incident is declared flapping and suppressed
	// (default 3).
	FlapThreshold int
	// FlapWindow is the flap-detection horizon in windows, and also how
	// long a resolved incident lingers so a recurrence reopens it
	// instead of opening a fresh one (default 30 ≈ 10 min of 20 s
	// windows).
	FlapWindow int
	// MaxHistory bounds the archived-incident ring (default 1024).
	MaxHistory int
	// MaxTransitions bounds each incident's lifecycle log (default 64;
	// oldest dropped, counted on the incident).
	MaxTransitions int
	// NotifyPerWindow caps notifications per analysis window, indexed by
	// Severity (defaults: 16 minor, 32 major, 64 critical). Events shed
	// by the cap are counted in Stats, never silently lost.
	NotifyPerWindow [NumSeverities]int
}

func (c *Config) setDefaults() {
	if c.ResolveAfter <= 0 {
		c.ResolveAfter = 3
	}
	if c.DeescalateAfter <= 0 {
		c.DeescalateAfter = 3
	}
	if c.FlapThreshold <= 0 {
		c.FlapThreshold = 3
	}
	if c.FlapWindow <= 0 {
		c.FlapWindow = 30
	}
	if c.MaxHistory <= 0 {
		c.MaxHistory = 1024
	}
	if c.MaxTransitions <= 0 {
		c.MaxTransitions = 64
	}
	defaults := [NumSeverities]int{SevMinor: 16, SevMajor: 32, SevCritical: 64}
	for s := range c.NotifyPerWindow {
		if c.NotifyPerWindow[s] <= 0 {
			c.NotifyPerWindow[s] = defaults[s]
		}
	}
}

// Stats is the engine's self-metrics snapshot.
type Stats struct {
	WindowsObserved int
	ProblemsFolded  int

	Opened       int
	Reopened     int
	Resolved     int
	Escalated    int
	Deescalated  int
	Suppressed   int // incidents that entered flap suppression
	Archived     int
	Acked        int
	ActiveCount  int // open + acked + lingering-resolved
	HistoryCount int

	NotificationsSent        int
	NotificationsRateLimited int
	NotificationsSuppressed  int // muted by flap suppression
}

// incident is the engine's mutable record; Incident snapshots are cut
// from it on the way out.
type incident struct {
	Incident
	// cleanStreak counts consecutive windows without the key.
	cleanStreak int
	// lowStreak counts consecutive seen-windows at a milder severity;
	// lowSev is the worst severity seen during that streak.
	lowStreak int
	lowSev    Severity
	// openWindows holds the absolute windows of open/reopen transitions
	// inside the flap horizon.
	openWindows []int
	// resolvedWindow is the window the incident last resolved in.
	resolvedWindow int
}

// Engine folds per-window analyzer problems into incidents. All methods
// are safe for concurrent use: the simulation feeds Observe from the
// engine goroutine while the API server reads snapshots from its own.
type Engine struct {
	cfg Config

	mu        sync.Mutex
	active    map[Key]*incident
	history   []*incident // archived ring, oldest first
	nextID    uint64
	lastWin   int
	lastAt    sim.Time
	notifiers []Notifier
	budget    [NumSeverities]int // remaining notifications this window
	stats     Stats
}

// NewEngine builds an engine.
func NewEngine(cfg Config) *Engine {
	cfg.setDefaults()
	return &Engine{
		cfg:    cfg,
		active: make(map[Key]*incident),
		nextID: 1,
	}
}

// AddNotifier registers an alarm sink. Not safe to race with Observe;
// register during wiring.
func (e *Engine) AddNotifier(n Notifier) {
	e.mu.Lock()
	e.notifiers = append(e.notifiers, n)
	e.mu.Unlock()
}

// notifyLocked emits one event under the per-severity window budget.
// Caller holds e.mu.
func (e *Engine) notifyLocked(typ EventType, in *incident) {
	in.record(typ, e.lastWin, e.lastAt, e.cfg.MaxTransitions)
	if in.Suppressed && typ != EventSuppress {
		e.stats.NotificationsSuppressed++
		return
	}
	if e.budget[in.Severity] <= 0 {
		e.stats.NotificationsRateLimited++
		return
	}
	e.budget[in.Severity]--
	e.stats.NotificationsSent++
	ev := Event{Type: typ, Window: e.lastWin, At: e.lastAt, Incident: in.snapshot()}
	for _, n := range e.notifiers {
		n.Notify(ev)
	}
}

func (in *incident) record(typ EventType, win int, at sim.Time, max int) {
	in.Transitions = append(in.Transitions, Transition{
		Type: typ, Window: win, At: at, Severity: in.Severity,
	})
	if over := len(in.Transitions) - max; over > 0 {
		in.Transitions = append(in.Transitions[:0], in.Transitions[over:]...)
		in.TransitionsDropped += over
	}
}

func (in *incident) snapshot() Incident {
	out := in.Incident
	out.Transitions = append([]Transition(nil), in.Transitions...)
	return out
}

// windowAgg is one key's aggregate over a single report.
type windowAgg struct {
	sev      Severity
	count    int
	evidence int
}

// Observe folds one analysis window into the incident set. Reports must
// arrive in window order from a single goroutine (the analysis loop);
// reads may race freely.
func (e *Engine) Observe(rep analyzer.WindowReport) {
	e.mu.Lock()
	defer e.mu.Unlock()

	e.lastWin = rep.Index
	e.lastAt = rep.End
	e.stats.WindowsObserved++
	e.budget = e.cfg.NotifyPerWindow

	// Aggregate this window's problems per key, preserving first-seen
	// order so new incident IDs are assigned deterministically.
	aggs := make(map[Key]*windowAgg)
	var order []Key
	for _, p := range rep.Problems {
		e.stats.ProblemsFolded++
		k := KeyOf(p)
		a, ok := aggs[k]
		if !ok {
			a = &windowAgg{sev: SeverityOf(p.Priority)}
			aggs[k] = a
			order = append(order, k)
		}
		if s := SeverityOf(p.Priority); s > a.sev {
			a.sev = s
		}
		a.count++
		if p.Evidence > a.evidence {
			a.evidence = p.Evidence
		}
	}

	for _, k := range order {
		agg := aggs[k]
		in, ok := e.active[k]
		if !ok {
			e.openLocked(k, agg, rep)
			continue
		}
		e.foldLocked(in, agg, rep)
	}

	// Advance the clean/linger clocks of every active incident whose key
	// did not appear, in sorted key order so resolve/archive event order
	// is deterministic.
	keys := make([]Key, 0, len(e.active))
	for k := range e.active {
		if _, seen := aggs[k]; !seen {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Entity != keys[j].Entity {
			return keys[i].Entity < keys[j].Entity
		}
		return keys[i].Class < keys[j].Class
	})
	for _, k := range keys {
		in := e.active[k]
		switch in.State {
		case StateOpen, StateAcked:
			in.cleanStreak++
			if in.cleanStreak >= e.cfg.ResolveAfter {
				in.State = StateResolved
				in.ResolvedAt = rep.End
				in.resolvedWindow = rep.Index
				e.stats.Resolved++
				e.notifyLocked(EventResolve, in)
			}
		case StateResolved:
			if rep.Index-in.resolvedWindow >= e.cfg.FlapWindow {
				e.archiveLocked(in)
			}
		}
	}
}

// openLocked starts a fresh incident.
func (e *Engine) openLocked(k Key, agg *windowAgg, rep analyzer.WindowReport) {
	in := &incident{Incident: Incident{
		ID: e.nextID, Key: k, State: StateOpen, Severity: agg.sev,
		Opens: 1, Count: agg.count, Evidence: agg.evidence,
		FirstWindow: rep.Index, LastWindow: rep.Index,
		FirstSeen: rep.End, LastSeen: rep.End,
	}}
	e.nextID++
	in.openWindows = []int{rep.Index}
	e.active[k] = in
	e.stats.Opened++
	e.notifyLocked(EventOpen, in)
}

// foldLocked merges one window's aggregate into an existing incident.
func (e *Engine) foldLocked(in *incident, agg *windowAgg, rep analyzer.WindowReport) {
	in.LastWindow = rep.Index
	in.LastSeen = rep.End
	in.Count += agg.count
	if agg.evidence > in.Evidence {
		in.Evidence = agg.evidence
	}
	in.cleanStreak = 0

	if in.State == StateResolved {
		// Reopen rather than duplicate: this is what collapses an
		// oscillating fault into one incident.
		in.State = StateOpen
		in.ResolvedAt = 0
		in.AckedBy = ""
		in.Opens++
		in.Flaps++
		e.stats.Reopened++
		in.openWindows = append(in.openWindows, rep.Index)
		e.trimOpens(in, rep.Index)
		if !in.Suppressed && len(in.openWindows) >= e.cfg.FlapThreshold {
			in.Suppressed = true
			e.stats.Suppressed++
			e.notifyLocked(EventSuppress, in)
		} else {
			e.notifyLocked(EventReopen, in)
		}
	}

	// Severity: escalate immediately, de-escalate with hysteresis.
	switch {
	case agg.sev > in.Severity:
		in.Severity = agg.sev
		in.lowStreak = 0
		e.stats.Escalated++
		e.notifyLocked(EventEscalate, in)
	case agg.sev < in.Severity:
		if in.lowStreak == 0 || agg.sev > in.lowSev {
			in.lowSev = agg.sev
		}
		in.lowStreak++
		if in.lowStreak >= e.cfg.DeescalateAfter {
			in.Severity = in.lowSev
			in.lowStreak = 0
			e.stats.Deescalated++
			e.notifyLocked(EventDeescalate, in)
		}
	default:
		in.lowStreak = 0
	}
}

// trimOpens drops open records older than the flap horizon.
func (e *Engine) trimOpens(in *incident, win int) {
	keep := in.openWindows[:0]
	for _, w := range in.openWindows {
		if win-w < e.cfg.FlapWindow {
			keep = append(keep, w)
		}
	}
	in.openWindows = keep
}

// archiveLocked moves a lingering resolved incident to the history ring.
func (e *Engine) archiveLocked(in *incident) {
	in.record(EventArchive, e.lastWin, e.lastAt, e.cfg.MaxTransitions)
	delete(e.active, in.Key)
	e.history = append(e.history, in)
	if over := len(e.history) - e.cfg.MaxHistory; over > 0 {
		e.history = append(e.history[:0], e.history[over:]...)
	}
	e.stats.Archived++
}

// acknowledge marks an open incident as owned by an operator. It is the
// console's only write besides Observe. Returns false if the incident is
// unknown or already resolved.
func (e *Engine) acknowledge(id uint64, who string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, in := range e.active {
		if in.ID != id {
			continue
		}
		if in.State != StateOpen {
			return false
		}
		in.State = StateAcked
		in.AckedBy = who
		e.stats.Acked++
		e.notifyLocked(EventAck, in)
		return true
	}
	return false
}

// Filter selects incidents for the accessors; zero fields match all.
type Filter struct {
	State    *State
	Severity *Severity
	// Entity matches the incident key's entity exactly (e.g.
	// "dev:pod0-tor0-h0-r1").
	Entity string
	// Class filters by problem kind when non-nil.
	Class *analyzer.ProblemKind
	// IncludeArchived extends the scan into the history ring.
	IncludeArchived bool
}

func (f Filter) match(in *incident) bool {
	if f.State != nil && in.State != *f.State {
		return false
	}
	if f.Severity != nil && in.Severity != *f.Severity {
		return false
	}
	if f.Entity != "" && in.Key.Entity != f.Entity {
		return false
	}
	if f.Class != nil && in.Key.Class != *f.Class {
		return false
	}
	return true
}

// Incidents returns snapshots of matching incidents sorted by ID
// (creation order). With a zero Filter it returns everything still
// active; set IncludeArchived to also scan the bounded history.
func (e *Engine) Incidents(f Filter) []Incident {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Incident
	if f.IncludeArchived {
		for _, in := range e.history {
			if f.match(in) {
				out = append(out, in.snapshot())
			}
		}
	}
	for _, in := range e.active {
		if f.match(in) {
			out = append(out, in.snapshot())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Incident looks one incident up by ID, scanning active then history.
func (e *Engine) Incident(id uint64) (Incident, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, in := range e.active {
		if in.ID == id {
			return in.snapshot(), true
		}
	}
	for _, in := range e.history {
		if in.ID == id {
			return in.snapshot(), true
		}
	}
	return Incident{}, false
}

// CheckInvariants audits the engine's internal consistency — the
// chaos/soak harness calls it every analysis window. It verifies that
// the active set is keyed correctly (so one (entity, class) can never be
// open twice), that IDs are unique and below the allocator watermark,
// that every state is legal for where the incident lives, and that the
// bounded rings respect their bounds. Any non-nil return is a bug in the
// engine, not in the fabric.
func (e *Engine) CheckInvariants() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	seenID := make(map[uint64]bool, len(e.active)+len(e.history))
	checkID := func(in *incident, where string) error {
		if in.ID == 0 || in.ID >= e.nextID {
			return fmt.Errorf("alert: %s incident %d outside allocator range [1, %d)", where, in.ID, e.nextID)
		}
		if seenID[in.ID] {
			return fmt.Errorf("alert: incident ID %d appears twice", in.ID)
		}
		seenID[in.ID] = true
		return nil
	}
	for k, in := range e.active {
		if in.Key != k {
			return fmt.Errorf("alert: incident %d filed under key %+v but carries key %+v (double-open hazard)", in.ID, k, in.Key)
		}
		switch in.State {
		case StateOpen, StateAcked, StateResolved:
		default:
			return fmt.Errorf("alert: active incident %d in invalid state %v", in.ID, in.State)
		}
		if err := checkID(in, "active"); err != nil {
			return err
		}
		if len(in.Transitions) > e.cfg.MaxTransitions {
			return fmt.Errorf("alert: incident %d holds %d transitions, bound %d", in.ID, len(in.Transitions), e.cfg.MaxTransitions)
		}
	}
	for _, in := range e.history {
		if in.State != StateResolved {
			return fmt.Errorf("alert: archived incident %d in state %v, want resolved", in.ID, in.State)
		}
		if err := checkID(in, "archived"); err != nil {
			return err
		}
		if _, alive := e.active[in.Key]; alive {
			// Legal: the key recurred after archival and opened a fresh
			// incident. Only identical IDs would be a bug, covered above.
			continue
		}
	}
	if len(e.history) > e.cfg.MaxHistory {
		return fmt.Errorf("alert: history holds %d incidents, bound %d", len(e.history), e.cfg.MaxHistory)
	}
	return nil
}

// Stats snapshots the engine's self-metrics.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.ActiveCount = len(e.active)
	s.HistoryCount = len(e.history)
	return s
}
