package rnic

import (
	"testing"

	"rpingmesh/internal/sim"
)

// checkPool asserts a device's free list is within its cap and holds no
// packet twice.
func checkPool(t *testing.T, name string, d *Device) {
	t.Helper()
	if len(d.free) > packetPoolCap {
		t.Fatalf("%s: %s free list holds %d packets, cap %d", name, d.ID(), len(d.free), packetPoolCap)
	}
	seen := map[*Packet]bool{}
	for _, p := range d.free {
		if seen[p] {
			t.Fatalf("%s: packet %p is on %s's free list twice", name, p, d.ID())
		}
		if !p.free || p.qp != nil || p.Payload != nil || p.onWire == nil || p.deliver == nil {
			t.Fatalf("%s: free packet not reset: %+v", name, p)
		}
		seen[p] = true
	}
}

// TestPacketPoolDrops: whatever drops a UD packet — the network, a stale
// QPN, a device that is down, misconfigured or corrupting on either side —
// it reaches a free list at most once (recycle panics on a second time),
// and a packet the network lost reaches none.
func TestPacketPoolDrops(t *testing.T) {
	cases := []struct {
		name  string
		fault func(a, b *Device, net *testNetwork, qb *QP)
		// toA, toB: packets come back to the sender (dropped before the
		// wire), to the receiver (dropped on arrival), or to neither.
		toA, toB bool
	}{
		{"link down", func(a, b *Device, net *testNetwork, qb *QP) { net.dropAll = true }, false, false},
		{"stale QPN", func(a, b *Device, net *testNetwork, qb *QP) { b.DestroyQP(qb.QPN()) }, false, true},
		{"sender down", func(a, b *Device, net *testNetwork, qb *QP) { a.SetUp(false) }, true, false},
		{"sender misconfigured", func(a, b *Device, net *testNetwork, qb *QP) { a.SetMisconfigured(true) }, true, false},
		{"receiver down", func(a, b *Device, net *testNetwork, qb *QP) { b.SetUp(false) }, false, true},
		{"receiver corrupting", func(a, b *Device, net *testNetwork, qb *QP) { b.SetRxCorruption(1) }, false, true},
	}
	for _, tc := range cases {
		eng := sim.New(1)
		a, b, net := newPair(eng, 10*sim.Microsecond)
		qa := a.CreateQP(UD)
		qb := b.CreateQP(UD)
		sendCQEs := 0
		qa.OnCompletion(func(c CQE) { sendCQEs++ })
		tc.fault(a, b, net, qb)
		const burst = 3 * packetPoolCap
		for round := 0; round < 3; round++ {
			for i := 0; i < burst; i++ {
				_ = qa.PostSend(SendRequest{WRID: uint64(i), SrcPort: 1, DstIP: b.IP(), DstGID: b.GID(), DstQPN: qb.QPN(), Payload: make([]byte, 50)})
			}
			eng.Run()
			checkPool(t, tc.name, a)
			checkPool(t, tc.name, b)
		}
		if sendCQEs != 3*burst {
			t.Fatalf("%s: %d send CQEs for %d sends", tc.name, sendCQEs, 3*burst)
		}
		if got := len(a.free) > 0; got != tc.toA {
			t.Fatalf("%s: sender free list %d, want packets back: %v", tc.name, len(a.free), tc.toA)
		}
		if got := len(b.free) > 0; got != tc.toB {
			t.Fatalf("%s: receiver free list %d, want packets back: %v", tc.name, len(b.free), tc.toB)
		}
	}
}

// TestPacketPoolRecycles: a delivered packet lands on the receiver's free
// list and the receiver's next send reuses it; one-way traffic fills the
// receiver's list only up to the cap.
func TestPacketPoolRecycles(t *testing.T) {
	eng := sim.New(1)
	a, b, _ := newPair(eng, 10*sim.Microsecond)
	qa := a.CreateQP(UD)
	qb := b.CreateQP(UD)
	for i := 0; i < 10*packetPoolCap; i++ {
		_ = qa.PostSend(SendRequest{SrcPort: 1, DstIP: b.IP(), DstGID: b.GID(), DstQPN: qb.QPN()})
	}
	eng.Run()
	if len(b.free) != packetPoolCap {
		t.Fatalf("receiver free list = %d after one-way traffic, want the cap %d", len(b.free), packetPoolCap)
	}
	checkPool(t, "one-way", b)
	next := b.free[len(b.free)-1]
	if err := qb.PostSend(SendRequest{SrcPort: 1, DstIP: a.IP(), DstGID: a.GID(), DstQPN: qa.QPN()}); err != nil {
		t.Fatal(err)
	}
	if len(b.free) != packetPoolCap-1 || next.qp != qb {
		t.Fatal("the receiver's send did not reuse its recycled packet")
	}
	eng.Run()
	if len(a.free) != 1 || a.free[0] != next {
		t.Fatal("the packet did not come back to its new receiver")
	}
}
