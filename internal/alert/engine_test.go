package alert

import (
	"fmt"
	"sync"
	"testing"

	"rpingmesh/internal/analyzer"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// rep builds a window report with the given absolute index.
func rep(idx int, probs ...analyzer.Problem) analyzer.WindowReport {
	return analyzer.WindowReport{
		Index:    idx,
		Start:    sim.Time(idx) * 20 * sim.Second,
		End:      sim.Time(idx+1) * 20 * sim.Second,
		Problems: probs,
	}
}

func devProb(dev string, pri analyzer.Priority, evidence int) analyzer.Problem {
	return analyzer.Problem{
		Kind: analyzer.ProblemRNIC, Priority: pri,
		Device: topo.DeviceID("dev-" + dev), Host: topo.HostID("host-" + dev),
		Evidence: evidence,
	}
}

func eventTypes(evs []Event) []EventType {
	out := make([]EventType, len(evs))
	for i, e := range evs {
		out[i] = e.Type
	}
	return out
}

func TestKeyOfAnchoring(t *testing.T) {
	cases := []struct {
		p    analyzer.Problem
		want string
	}{
		{analyzer.Problem{Kind: analyzer.ProblemRNIC, Device: "d1", Host: "h1"}, "dev:d1"},
		{analyzer.Problem{Kind: analyzer.ProblemHostDown, Host: "h1"}, "host:h1"},
		{analyzer.Problem{Kind: analyzer.ProblemSwitchLink, Link: 42}, "link:42"},
		{analyzer.Problem{Kind: analyzer.ProblemHighRTT, FromServiceTracing: true}, "service"},
	}
	for _, c := range cases {
		if got := KeyOf(c.p).Entity; got != c.want {
			t.Errorf("KeyOf(%+v).Entity = %q, want %q", c.p, got, c.want)
		}
	}
}

// One problem class on one entity: open on first sight, resolve only
// after ResolveAfter consecutive clean windows.
func TestOpenResolveHysteresis(t *testing.T) {
	e := NewEngine(Config{ResolveAfter: 3})
	mem := &MemNotifier{}
	e.AddNotifier(mem)

	e.Observe(rep(0, devProb("a", analyzer.P1, 5)))
	e.Observe(rep(1, devProb("a", analyzer.P1, 7)))

	ins := e.Incidents(Filter{})
	if len(ins) != 1 {
		t.Fatalf("incidents = %d, want 1", len(ins))
	}
	in := ins[0]
	if in.State != StateOpen || in.Severity != SevMajor || in.Count != 2 || in.Evidence != 7 {
		t.Fatalf("unexpected incident after 2 windows: %+v", in)
	}

	// Two clean windows: still open (hysteresis).
	e.Observe(rep(2))
	e.Observe(rep(3))
	if in := e.Incidents(Filter{})[0]; in.State != StateOpen {
		t.Fatalf("resolved after only 2 clean windows: %+v", in)
	}
	// Third clean window resolves.
	e.Observe(rep(4))
	in = e.Incidents(Filter{})[0]
	if in.State != StateResolved || in.ResolvedAt != rep(4).End {
		t.Fatalf("want resolved at w4, got %+v", in)
	}

	got := eventTypes(mem.Events())
	want := []EventType{EventOpen, EventResolve}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("event stream = %v, want %v", got, want)
	}
	if in.FirstWindow != 0 || in.LastWindow != 1 {
		t.Fatalf("window span [%d,%d], want [0,1]", in.FirstWindow, in.LastWindow)
	}
}

// An oscillating fault (on one window, off long enough to resolve,
// repeat) collapses into ONE incident, gets suppressed after
// FlapThreshold opens, and stops notifying while suppressed.
func TestFlapSuppressionCollapsesOscillation(t *testing.T) {
	e := NewEngine(Config{ResolveAfter: 2, FlapThreshold: 3, FlapWindow: 100})
	mem := &MemNotifier{}
	e.AddNotifier(mem)

	// 8 on/off cycles: seen at w0, w3, w6, ... (resolve takes 2 clean
	// windows, so each cycle is seen, clean, clean→resolved).
	win := 0
	for cycle := 0; cycle < 8; cycle++ {
		e.Observe(rep(win, devProb("flappy", analyzer.P2, 1)))
		e.Observe(rep(win + 1))
		e.Observe(rep(win + 2))
		win += 3
	}

	all := e.Incidents(Filter{IncludeArchived: true})
	if len(all) != 1 {
		t.Fatalf("oscillating fault produced %d incidents, want 1", len(all))
	}
	in := all[0]
	if !in.Suppressed {
		t.Fatalf("incident not suppressed after %d opens: %+v", in.Opens, in)
	}
	if in.Opens != 8 || in.Flaps != 7 {
		t.Fatalf("opens=%d flaps=%d, want 8/7", in.Opens, in.Flaps)
	}

	// The notifier saw the pre-suppression lifecycle and the single
	// suppress event, then silence.
	var afterSuppress int
	suppressSeen := false
	for _, ev := range mem.Events() {
		if suppressSeen {
			afterSuppress++
		}
		if ev.Type == EventSuppress {
			suppressSeen = true
		}
	}
	if !suppressSeen {
		t.Fatal("no suppress event emitted")
	}
	if afterSuppress != 0 {
		t.Fatalf("%d notifications leaked after suppression", afterSuppress)
	}
	st := e.Stats()
	if st.NotificationsSuppressed == 0 {
		t.Fatal("suppressed notifications not accounted")
	}
	if st.Reopened != 7 || st.Suppressed != 1 {
		t.Fatalf("stats reopened=%d suppressed=%d, want 7/1", st.Reopened, st.Suppressed)
	}
}

// Severity follows impact: escalation is immediate, de-escalation needs
// DeescalateAfter consecutive milder windows.
func TestSeverityEscalationAndDeescalation(t *testing.T) {
	e := NewEngine(Config{DeescalateAfter: 3, ResolveAfter: 100})
	mem := &MemNotifier{}
	e.AddNotifier(mem)

	e.Observe(rep(0, devProb("a", analyzer.P2, 1)))
	if in := e.Incidents(Filter{})[0]; in.Severity != SevMinor {
		t.Fatalf("severity = %v, want minor", in.Severity)
	}
	// P0 window escalates immediately.
	e.Observe(rep(1, devProb("a", analyzer.P0, 1)))
	if in := e.Incidents(Filter{})[0]; in.Severity != SevCritical {
		t.Fatalf("severity = %v, want critical", in.Severity)
	}
	// Two milder windows: still critical.
	e.Observe(rep(2, devProb("a", analyzer.P1, 1)))
	e.Observe(rep(3, devProb("a", analyzer.P1, 1)))
	if in := e.Incidents(Filter{})[0]; in.Severity != SevCritical {
		t.Fatalf("de-escalated too early: %v", in.Severity)
	}
	// Third milder window de-escalates to the streak's worst (major).
	e.Observe(rep(4, devProb("a", analyzer.P1, 1)))
	if in := e.Incidents(Filter{})[0]; in.Severity != SevMajor {
		t.Fatalf("severity = %v, want major after de-escalation", in.Severity)
	}

	got := eventTypes(mem.Events())
	want := []EventType{EventOpen, EventEscalate, EventDeescalate}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("event stream = %v, want %v", got, want)
	}
}

// Per-severity, per-window notification budgets: overflow is counted,
// not delivered.
func TestPerSeverityRateLimit(t *testing.T) {
	e := NewEngine(Config{NotifyPerWindow: [NumSeverities]int{SevMinor: 2, SevMajor: 8, SevCritical: 8}})
	mem := &MemNotifier{}
	e.AddNotifier(mem)

	probs := make([]analyzer.Problem, 5)
	for i := range probs {
		probs[i] = devProb(fmt.Sprintf("e%d", i), analyzer.P2, 1)
	}
	e.Observe(rep(0, probs...))

	if got := mem.Len(); got != 2 {
		t.Fatalf("delivered %d notifications, want 2 (budget)", got)
	}
	st := e.Stats()
	if st.NotificationsRateLimited != 3 {
		t.Fatalf("rate-limited = %d, want 3", st.NotificationsRateLimited)
	}
	if st.Opened != 5 {
		t.Fatalf("opened = %d, want 5 (rate limit must not drop incidents)", st.Opened)
	}

	// Budget refills next window: the still-open incidents don't
	// re-notify, but a fresh one does.
	e.Observe(rep(1, append(probs, devProb("fresh", analyzer.P2, 1))...))
	if got := mem.Len(); got != 3 {
		t.Fatalf("after refill delivered %d total, want 3", got)
	}
}

// Resolved incidents linger FlapWindow windows for reopen-collapse, then
// archive into a bounded ring.
func TestArchiveAndBoundedHistory(t *testing.T) {
	e := NewEngine(Config{ResolveAfter: 1, FlapWindow: 2, MaxHistory: 2})

	// Three sequential incidents on distinct entities.
	for i := 0; i < 3; i++ {
		base := i * 10
		e.Observe(rep(base, devProb(fmt.Sprintf("e%d", i), analyzer.P2, 1)))
		for w := 1; w < 10; w++ {
			e.Observe(rep(base + w))
		}
	}

	st := e.Stats()
	if st.Archived != 3 {
		t.Fatalf("archived = %d, want 3", st.Archived)
	}
	if st.HistoryCount != 2 {
		t.Fatalf("history holds %d, want 2 (bounded)", st.HistoryCount)
	}
	// The oldest incident fell off the ring; the newest two are
	// queryable by ID and via IncludeArchived.
	if _, ok := e.Incident(1); ok {
		t.Fatal("incident 1 should have been evicted from history")
	}
	if _, ok := e.Incident(3); !ok {
		t.Fatal("incident 3 missing from history")
	}
	if got := len(e.Incidents(Filter{IncludeArchived: true})); got != 2 {
		t.Fatalf("IncludeArchived returned %d, want 2", got)
	}
	if got := len(e.Incidents(Filter{})); got != 0 {
		t.Fatalf("active list returned %d, want 0", got)
	}
}

func TestAcknowledge(t *testing.T) {
	e := NewEngine(Config{ResolveAfter: 2})
	e.Observe(rep(0, devProb("a", analyzer.P1, 1)))

	in := e.Incidents(Filter{})[0]
	if !e.acknowledge(in.ID, "oncall") {
		t.Fatal("acknowledge failed")
	}
	got, _ := e.Incident(in.ID)
	if got.State != StateAcked || got.AckedBy != "oncall" {
		t.Fatalf("after ack: %+v", got)
	}
	// Double-ack and unknown IDs fail.
	if e.acknowledge(in.ID, "again") {
		t.Fatal("double ack succeeded")
	}
	if e.acknowledge(999, "nobody") {
		t.Fatal("ack of unknown incident succeeded")
	}
	// Acked incidents still auto-resolve.
	e.Observe(rep(1))
	e.Observe(rep(2))
	got, _ = e.Incident(in.ID)
	if got.State != StateResolved {
		t.Fatalf("acked incident did not resolve: %+v", got)
	}
}

// Filters select by state, severity, entity and class.
func TestIncidentFilters(t *testing.T) {
	e := NewEngine(Config{ResolveAfter: 1, FlapWindow: 100})
	e.Observe(rep(0,
		devProb("a", analyzer.P0, 1),
		analyzer.Problem{Kind: analyzer.ProblemSwitchLink, Priority: analyzer.P1, Link: 7},
	))
	e.Observe(rep(1, devProb("a", analyzer.P0, 1))) // link incident resolves

	open := StateOpen
	if got := len(e.Incidents(Filter{State: &open})); got != 1 {
		t.Fatalf("open filter: %d, want 1", got)
	}
	crit := SevCritical
	if got := len(e.Incidents(Filter{Severity: &crit})); got != 1 {
		t.Fatalf("severity filter: %d, want 1", got)
	}
	if got := len(e.Incidents(Filter{Entity: "link:7"})); got != 1 {
		t.Fatalf("entity filter: %d, want 1", got)
	}
	cls := analyzer.ProblemSwitchLink
	if got := len(e.Incidents(Filter{Class: &cls})); got != 1 {
		t.Fatalf("class filter: %d, want 1", got)
	}
}

// The per-incident transition log is bounded; shed entries are counted.
func TestTransitionLogBounded(t *testing.T) {
	e := NewEngine(Config{ResolveAfter: 1, FlapWindow: 10000, FlapThreshold: 10000, MaxTransitions: 4})
	win := 0
	for cycle := 0; cycle < 10; cycle++ { // 10 opens + 10 resolves = 20 transitions
		e.Observe(rep(win, devProb("a", analyzer.P2, 1)))
		e.Observe(rep(win + 1))
		win += 2
	}
	in := e.Incidents(Filter{})[0]
	if len(in.Transitions) != 4 {
		t.Fatalf("transition log holds %d, want 4", len(in.Transitions))
	}
	if in.TransitionsDropped != 16 {
		t.Fatalf("dropped = %d, want 16", in.TransitionsDropped)
	}
}

// The engine is read-safe while Observe runs: the API server reads
// snapshots from foreign goroutines.
func TestConcurrentReadsDuringObserve(t *testing.T) {
	e := NewEngine(Config{ResolveAfter: 2, FlapWindow: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.Incidents(Filter{IncludeArchived: true})
				e.Stats()
				e.Incident(1)
			}
		}()
	}
	for w := 0; w < 500; w++ {
		var probs []analyzer.Problem
		if w%3 != 0 {
			probs = append(probs, devProb(fmt.Sprintf("e%d", w%5), analyzer.Priority(w%3), w))
		}
		e.Observe(rep(w, probs...))
	}
	close(stop)
	wg.Wait()
	if st := e.Stats(); st.WindowsObserved != 500 {
		t.Fatalf("windows observed = %d, want 500", st.WindowsObserved)
	}
}
