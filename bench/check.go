package main

// check.go is the output check that can fail the run: every operation
// the harness attempts is counted, every breach of an accounting law or
// of ground truth is counted as failed, and any failure makes the
// workload exit non-zero.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// checker counts operations attempted and failed and keeps the first few
// failure descriptions for the report.
type checker struct {
	attempted, failed int
	notes             []string

	nextWindow int  // next window index the stream subscriber must deliver
	windowSeen bool // set once the first event fixes the numbering
}

const maxNotes = 12

func (c *checker) note(format string, args ...any) {
	if len(c.notes) < maxNotes {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// op counts one checked operation.
func (c *checker) op(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.note(format, args...)
	}
}

// ops counts n operations of which bad failed.
func (c *checker) ops(n, bad int, what string) {
	c.attempted += n
	if bad > 0 {
		c.failed += bad
		c.note("%d of %d %s", bad, n, what)
	}
}

// windowPayload is the part of /api/stream/windows' event the check
// reads.
type windowPayload struct {
	Window   int   `json:"window"`
	Probes   int64 `json:"probes"`
	Problems int   `json:"problems"`
}

// windowEvent checks that the subscriber popped exactly this window's
// event: present, gapless, and agreeing with the report.
func (c *checker) windowEvent(g int, rep windowReport, ev streamEvent, ok bool) {
	c.attempted++
	if !ok {
		c.failed++
		c.note("window %d: no event at the stream subscriber", g)
		return
	}
	var p windowPayload
	if err := json.Unmarshal(ev.Data, &p); err != nil {
		c.failed++
		c.note("window %d: undecodable stream event: %v", g, err)
		return
	}
	if !c.windowSeen {
		c.windowSeen, c.nextWindow = true, p.Window
	}
	if p.Window != c.nextWindow || p.Window != rep.Index || p.Probes != rep.Cluster.Probes || p.Problems != len(rep.Problems) {
		c.failed++
		c.note("window %d: stream event {w=%d probes=%d problems=%d} != report {w=%d probes=%d problems=%d} (want w=%d)",
			g, p.Window, p.Probes, p.Problems, rep.Index, rep.Cluster.Probes, len(rep.Problems), c.nextWindow)
	}
	c.nextWindow = p.Window + 1
}

// incidentPayload is the part of /api/stream/incidents' event the check
// reads.
type incidentPayload struct {
	Event    string `json:"event"`
	Window   int    `json:"window"`
	At       vtime  `json:"at_ns"`
	Incident struct {
		Entity string `json:"entity"`
		Class  string `json:"class"`
	} `json:"incident"`
}

// drainIncidents reads every queued incident event off the stream. An
// open (or re-open) must match a planted fault active at that time — it
// stamps the fault's detection time — or it is an unexplained incident.
func (c *checker) drainIncidents(next func() (streamEvent, bool), tp topoView, faults []*plantedFault) int {
	n := 0
	for {
		ev, ok := next()
		if !ok {
			return n
		}
		n++
		var p incidentPayload
		if err := json.Unmarshal(ev.Data, &p); err != nil {
			c.op(false, "undecodable incident event: %v", err)
			continue
		}
		if p.Event != "open" && p.Event != "reopen" {
			continue
		}
		matched := false
		for _, f := range faults {
			if f.activeAt(p.At) && f.matches(tp, p.Incident.Entity, p.Incident.Class) {
				matched = true
				if f.Detected == 0 {
					f.Detected, f.DetectedAs = p.At, p.Incident.Entity
				}
			}
		}
		c.op(matched, "incident %s/%s %s at %v matches no planted fault", p.Incident.Entity, p.Incident.Class, p.Event, p.At)
	}
}

// faultsDetected counts every planted fault that had a full window to
// show itself: detected on the incident stream at its true location, or
// failed.
func (c *checker) faultsDetected(faults []*plantedFault, end vtime) {
	for _, f := range faults {
		if f.Injected+2*windowLen > end {
			continue // planted too close to the end to be judged
		}
		c.op(f.Detected > 0, "fault %v (dev=%s host=%s link=%d) injected at %v was never detected at its true location",
			f.Kind, f.Dev, f.Host, f.Link, f.Injected)
	}
}

// reportsExplained holds every window to "the planted faults and nothing
// else": gapless indexes, and no problem without a planted cause.
func (c *checker) reportsExplained(tp topoView, reps []windowReport, faults []*plantedFault) {
	for i, rep := range reps {
		c.op(i == 0 || rep.Index == reps[i-1].Index+1, "window index gap: %d follows %d", rep.Index, reps[max(i-1, 0)].Index)
		for _, u := range unexplained(tp, rep, faults) {
			c.op(false, "unexplained problem %s", u)
		}
	}
}

// conserved holds a stack to the laws both spines share: nothing dropped
// under Block, the pipeline's own accounting identity, the store ingested
// what the pipeline delivered, every hub subscriber's published =
// delivered + shed + queued.
func (c *checker) conserved(a accounting) {
	c.op(a.pipe.Dropped() == 0 && a.pipe.ResultsShed == 0, "pipeline dropped %d batches / %d results under Block", a.pipe.Dropped(), a.pipe.ResultsShed)
	c.op(a.pipe.AccountingError() == nil, "pipeline accounting: %v", a.pipe.AccountingError())
	c.op(a.tsdb.IngestedRecords == a.pipe.ResultsDelivered, "tsdb IngestedRecords %d != pipeline ResultsDelivered %d",
		a.tsdb.IngestedRecords, a.pipe.ResultsDelivered)
	for _, hs := range a.hubs {
		err := hubConserved(hs)
		c.op(err == nil, "%v", err)
	}
}

func analysed(reps []windowReport) (n uint64) {
	for _, rep := range reps {
		n += uint64(rep.Cluster.Probes + rep.Service.Probes)
	}
	return n
}

// liveAccounting: records sent = delivered = analysed, the follower
// caught up, every agent registered, and nothing but the planted faults
// reported.
func (c *checker) liveAccounting(lr *liveRun, snap liveSnapshot) {
	c.conserved(snap.accounting)
	c.op(snap.pipe.ResultsDelivered == lr.sent, "records sent %d != pipeline ResultsDelivered %d", lr.sent, snap.pipe.ResultsDelivered)
	c.op(analysed(lr.s.reports) == lr.sent, "records sent %d != Σ window probes %d", lr.sent, analysed(lr.s.reports))
	c.op(snap.followLag == 0, "follower still %d entries behind after the last CatchUp", snap.followLag)
	c.op(snap.registered == len(lr.set.tp.RNICs), "controller holds %d registrations, want %d", snap.registered, len(lr.set.tp.RNICs))
	c.reportsExplained(lr.set.tp, lr.s.reports, lr.faults)
}

// simAccounting: what the agents uploaded is what the pipeline delivered
// is what the windows analysed, plus what waits for the next Tick.
func (c *checker) simAccounting(sr *simRun, snap simSnapshot) {
	c.conserved(snap.accounting)
	got := analysed(sr.s.reports) + uint64(snap.pending)
	c.op(snap.pipe.ResultsDelivered == got, "pipeline ResultsDelivered %d != Σ window probes + pending %d", snap.pipe.ResultsDelivered, got)
}

// fingerprint hashes the order-independent digest of every report: two
// runs of one seed must agree on it.
func fingerprint(reps []windowReport) string {
	h := fnv.New64a()
	for _, rep := range reps {
		h.Write([]byte(reportDigest(rep)))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
