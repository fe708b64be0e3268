package tsdb

import (
	"math/rand"
	"testing"
	"time"

	"rpingmesh/internal/sim"
)

// scanner is the read surface *DB and *Follower share.
type scanner interface {
	Scan(name string, from, to sim.Time, fn func(Point)) bool
	Range(name string, from, to sim.Time) []Point
	Latest(name string) (Point, bool)
}

// Scan and Range are one walk: on random [from, to] — inside a tier,
// across each seam, inverted, past either end — Scan visits exactly the
// points Range returns, in the same order, for exact and sketch series,
// on the primary and on a follower; and found says whether the series
// exists, whatever the range holds.
func TestScanMatchesRange(t *testing.T) {
	db := Open(Config{
		RawCapacity: 16, WindowStep: 20 * sim.Second, WindowCapacity: 8,
		CoarseStep: 5 * sim.Minute, CoarseCapacity: 4, JournalCapacity: 1 << 16,
	})
	f := NewFollower(db)
	var end sim.Time
	for w := 0; w < 120; w++ {
		end = fillWindow(db, w)
	}
	f.CatchUp()
	if st := db.Stats(); st.RawEvicted == 0 || st.WindowEvicted == 0 || st.CoarseEvicted == 0 {
		t.Fatalf("fixture does not cross the seams: %+v", st)
	}

	rng := rand.New(rand.NewSource(20))
	names := append(db.Series(), "no.such.series")
	for _, st := range []scanner{db, f} {
		for i := 0; i < 2000; i++ {
			name := names[rng.Intn(len(names))]
			// Bounds from a little before the data to a little after it.
			from := sim.Time(rng.Int63n(int64(end+2*sim.Minute))) - sim.Minute
			to := sim.Time(rng.Int63n(int64(end+2*sim.Minute))) - sim.Minute
			want := st.Range(name, from, to)
			var got []Point
			found := st.Scan(name, from, to, func(p Point) { got = append(got, p) })
			if _, known := st.Latest(name); found != known {
				t.Fatalf("%T Scan(%q) found = %v, Latest ok = %v", st, name, found, known)
			}
			if len(got) != len(want) {
				t.Fatalf("%T %q [%d, %d]: Scan visited %d points, Range returned %d", st, name, from, to, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("%T %q [%d, %d] point %d: Scan %+v, Range %+v", st, name, from, to, k, got[k], want[k])
				}
				if k > 0 && got[k].T < got[k-1].T {
					t.Fatalf("%T %q [%d, %d]: out of time order at %d: %v", st, name, from, to, k, got)
				}
			}
		}
	}
}

// Admission control runs Follower.Lag on every console request; it must
// not queue behind the primary's write lock, which an ingest batch holds
// for its whole length.
func TestFollowerLagTakesNoPrimaryLock(t *testing.T) {
	db := Open(Config{JournalCapacity: 64})
	f := NewFollower(db)
	db.Append("s", 1, 1)
	db.AppendSketch("k", 1, 1)
	if lag := f.Lag(); lag != 2 {
		t.Fatalf("Lag before CatchUp = %d, want 2", lag)
	}
	f.CatchUp()

	db.mu.Lock() // a writer mid-batch
	got := make(chan uint64, 1)
	go func() { got <- f.Lag() }()
	select {
	case lag := <-got:
		if lag != 0 {
			t.Errorf("Lag under the primary's write lock = %d, want 0", lag)
		}
	case <-time.After(5 * time.Second):
		t.Error("Follower.Lag waited for the primary's write lock")
	}
	db.mu.Unlock()
}
