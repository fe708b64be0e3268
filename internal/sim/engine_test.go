package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v", got)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	e := New(1)
	var at Time
	e.After(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Fatalf("nested After fired at %v, want 150", at)
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	e := New(1)
	var fired Time = -1
	e.At(100, func() {
		e.At(10, func() { fired = e.Now() }) // in the past
	})
	e.Run()
	if fired != 100 {
		t.Fatalf("past event fired at %v, want clamp to 100", fired)
	}
}

func TestCancel(t *testing.T) {
	e := New(1)
	fired := false
	h := e.At(10, func() { fired = true })
	h.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double-cancel and cancel-after-run are no-ops.
	h.Cancel()
	Handle{}.Cancel()
}

func TestTicker(t *testing.T) {
	e := New(1)
	var times []Time
	tk := e.Every(5, 10, func() {
		times = append(times, e.Now())
		if len(times) == 3 {
			// Stop from inside the callback.
			return
		}
	})
	e.At(26, func() { tk.Stop() })
	e.Run()
	want := []Time{5, 15, 25}
	if len(times) != len(want) {
		t.Fatalf("ticker fired %d times at %v, want %v", len(times), times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticker times = %v, want %v", times, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := New(1)
	n := 0
	var tk *Ticker
	tk = e.Every(0, 10, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	e.Run()
	if n != 2 {
		t.Fatalf("ticker fired %d times, want 2", n)
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	var fired []Time
	e.Every(10, 10, func() { fired = append(fired, e.Now()) })
	e.RunUntil(35)
	if len(fired) != 3 {
		t.Fatalf("fired %v, want 3 events", fired)
	}
	if e.Now() != 35 {
		t.Fatalf("Now = %v, want 35 (clock advances to deadline)", e.Now())
	}
	// Resume: the pending tick at 40 should still fire.
	e.RunUntil(45)
	if len(fired) != 4 || fired[3] != 40 {
		t.Fatalf("resume fired %v", fired)
	}
}

func TestRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	e := New(1)
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("Now = %v, want 1000", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	n := 0
	e.At(1, func() { n++; e.Stop() })
	e.At(2, func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatalf("ran %d events after Stop, want 1", n)
	}
	if len(e.queue) != 1 {
		t.Fatalf("pending = %d, want 1", len(e.queue))
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []Time {
		e := New(seed)
		rng := e.SubRand("jitter")
		var out []Time
		var schedule func()
		schedule = func() {
			if len(out) >= 50 {
				return
			}
			out = append(out, e.Now())
			e.After(Time(rng.Intn(1000)+1), schedule)
		}
		e.At(0, schedule)
		e.Run()
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if i >= len(c) || a[i] != c[i] {
			same = false
			break
		}
	}
	if same && len(a) == len(c) {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestDurationConversions(t *testing.T) {
	if (2 * Second).Duration() != 2*time.Second {
		t.Fatal("Duration(2s)")
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds = %v", got)
	}
	if (42 * Second).String() != "42s" {
		t.Fatalf("String = %q", (42 * Second).String())
	}
}

// Property: for any set of scheduled times, events fire in non-decreasing
// time order and the clock never goes backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New(7)
		var last Time = -1
		ok := true
		for _, d := range delays {
			e.At(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Fired counts exactly the non-cancelled events.
func TestPropertyFiredCount(t *testing.T) {
	f := func(n uint8, cancelMask uint64) bool {
		e := New(3)
		rng := rand.New(rand.NewSource(int64(n)))
		cancelled := 0
		for i := 0; i < int(n); i++ {
			h := e.At(Time(rng.Intn(100)), func() {})
			if cancelMask&(1<<(uint(i)%64)) != 0 {
				h.Cancel()
				cancelled++
			}
		}
		e.Run()
		return e.Fired() == uint64(int(n)-cancelled)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicOnNilCallback(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil callback")
		}
	}()
	New(1).At(0, nil)
}

func TestPanicOnNonPositivePeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive period")
		}
	}()
	New(1).Every(0, 0, func() {})
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New(1)
		for j := 0; j < 1000; j++ {
			e.At(Time(j%97), func() {})
		}
		e.Run()
	}
}
