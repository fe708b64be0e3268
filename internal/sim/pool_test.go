package sim

import "testing"

// TestCancelBoundedHeap is the Handle.Cancel leak fix's contract: cancel
// 10k timers and the heap must not retain them until their (far-future)
// firing times — lazy compaction reaps the dead majority immediately.
func TestCancelBoundedHeap(t *testing.T) {
	e := New(1)
	const n = 10_000
	handles := make([]Handle, 0, n)
	for i := 0; i < n; i++ {
		handles = append(handles, e.After(Hour+Time(i), func() {}))
	}
	// One live sentinel far in the future keeps the queue non-empty.
	fired := false
	e.After(2*Hour, func() { fired = true })

	for _, h := range handles {
		h.Cancel()
	}
	if got := len(e.queue); got > n/2 {
		t.Fatalf("heap holds %d entries after cancelling %d timers; compaction did not run", got, n)
	}
	if got := e.live(); got != 1 {
		t.Fatalf("live() = %d, want 1 (the sentinel)", got)
	}

	// Steady-state churn: schedule+cancel in a loop must not grow the heap.
	for i := 0; i < n; i++ {
		h := e.After(Hour, func() {})
		h.Cancel()
	}
	if got := len(e.queue); got > compactMinHeap+1 {
		t.Fatalf("heap grew to %d entries under schedule/cancel churn", got)
	}

	e.Run()
	if !fired {
		t.Fatal("sentinel event did not fire")
	}
	if e.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", e.Fired())
	}
}

// TestHandleGenerations: a Handle kept across its event's firing must not
// cancel the pooled record's next occupant.
func TestHandleGenerations(t *testing.T) {
	e := New(1)
	var stale Handle
	ran := 0
	stale = e.After(1, func() { ran++ })
	e.Run()

	// The fired record is back in the pool; the next event reuses it.
	h2 := e.After(1, func() { ran += 10 })
	stale.Cancel() // must be a no-op on the recycled record
	e.Run()
	if ran != 11 {
		t.Fatalf("ran = %d, want 11 (stale handle cancelled a recycled event?)", ran)
	}
	h2.Cancel() // cancelling after firing is still a no-op
	if e.live() != 0 {
		t.Fatalf("live() = %d, want 0", e.live())
	}
}

// TestDoubleCancelAccounting: cancelling twice must not corrupt the dead
// counter that drives compaction.
func TestDoubleCancelAccounting(t *testing.T) {
	e := New(1)
	h := e.After(Hour, func() {})
	h.Cancel()
	h.Cancel()
	if e.deadCount != 1 {
		t.Fatalf("deadCount = %d after double cancel, want 1", e.deadCount)
	}
	e.Run()
	if e.deadCount != 0 || len(e.queue) != 0 {
		t.Fatalf("deadCount=%d pending=%d after run, want 0/0", e.deadCount, len(e.queue))
	}
}

// TestPoolReuse: the event pool must actually recycle records — steady
// scheduling should stabilize the pool instead of growing it.
func TestPoolReuse(t *testing.T) {
	e := New(1)
	for i := 0; i < 1000; i++ {
		e.After(Time(i), func() {})
	}
	e.Run()
	freeAfterBurst := len(e.free)
	for i := 0; i < 1000; i++ {
		e.After(e.Now()+Time(i), func() {})
	}
	e.Run()
	if len(e.free) > freeAfterBurst {
		t.Fatalf("pool grew across identical bursts: %d -> %d", freeAfterBurst, len(e.free))
	}
}

// TestTickerAcrossCompaction: ticker re-arm handles must survive the heap
// compaction triggered by mass cancellation around them.
func TestTickerAcrossCompaction(t *testing.T) {
	e := New(1)
	ticks := 0
	tk := e.Every(Millisecond, Millisecond, func() { ticks++ })
	handles := make([]Handle, 0, 1000)
	for i := 0; i < 1000; i++ {
		handles = append(handles, e.After(Hour, func() {}))
	}
	for _, h := range handles {
		h.Cancel() // forces compaction with the ticker's event in the heap
	}
	e.RunUntil(10 * Millisecond)
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	tk.Stop()
	e.RunUntil(20 * Millisecond)
	if ticks != 10 {
		t.Fatalf("ticker fired after Stop: %d", ticks)
	}
}
