package rnic

import (
	"fmt"
	"testing"
	"testing/quick"

	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// Interleaved RC messages must each complete exactly once, in order of
// their ACKs, with no cross-talk between sequence numbers.
func TestRCInterleavedMessages(t *testing.T) {
	eng := sim.New(1)
	a, b, _ := newPair(eng, 20*sim.Microsecond)
	qa := a.CreateQP(RC)
	qb := b.CreateQP(RC)
	if err := qa.Connect(b.IP(), b.GID(), qb.QPN()); err != nil {
		t.Fatal(err)
	}
	if err := qb.Connect(a.IP(), a.GID(), qa.QPN()); err != nil {
		t.Fatal(err)
	}
	var completed []uint64
	qa.OnCompletion(func(c CQE) {
		if c.Type == CQESend && c.Status == StatusOK {
			completed = append(completed, c.WRID)
		}
	})
	const n = 20
	for i := 0; i < n; i++ {
		if err := qa.PostSend(SendRequest{WRID: uint64(i), SrcPort: 1, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(completed) != n {
		t.Fatalf("completed %d of %d sends", len(completed), n)
	}
	seen := map[uint64]bool{}
	for _, w := range completed {
		if seen[w] {
			t.Fatalf("WRID %d completed twice", w)
		}
		seen[w] = true
	}
}

// A duplicate transport ACK (original arrives after a retransmission
// already completed the WR) must not complete anything twice.
func TestRCDuplicateAckIgnored(t *testing.T) {
	eng := sim.New(1)
	net := newTestNetwork(eng, 5*sim.Microsecond)
	// RTO shorter than the delivery delay forces a retransmission whose
	// ACK races the original's.
	a := NewDevice(eng, net, Config{ID: "a", IP: ip(1), GID: "a", Host: "h", RCTimeout: 2 * sim.Microsecond, RCRetries: 7})
	b := NewDevice(eng, net, Config{ID: "b", IP: ip(2), GID: "b", Host: "h2"})
	net.add(a)
	net.add(b)
	qa := a.CreateQP(RC)
	qb := b.CreateQP(RC)
	if err := qa.Connect(b.IP(), b.GID(), qb.QPN()); err != nil {
		t.Fatal(err)
	}
	completions := 0
	qa.OnCompletion(func(c CQE) {
		if c.Type == CQESend && c.Status == StatusOK {
			completions++
		}
	})
	if err := qa.PostSend(SendRequest{SrcPort: 1, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if completions != 1 {
		t.Fatalf("send completed %d times, want exactly 1", completions)
	}
	if a.Counters.RCRetransmits == 0 {
		t.Fatal("test setup: expected at least one retransmission")
	}
}

// Serialization time scales with payload size and link rate.
func TestSerializationScaling(t *testing.T) {
	eng := sim.New(1)
	net := newTestNetwork(eng, 0)
	slow := NewDevice(eng, net, Config{ID: "s", IP: ip(1), GID: "s", Host: "h", LinkGbps: 1})
	fast := NewDevice(eng, net, Config{ID: "f", IP: ip(2), GID: "f", Host: "h", LinkGbps: 400})
	net.add(slow)
	net.add(fast)
	dst := fast.CreateQP(UD)

	measure := func(dev *Device, size int) sim.Time {
		qp := dev.CreateQP(UD)
		var at sim.Time = -1
		start := eng.Now()
		qp.OnCompletion(func(c CQE) {
			if c.Type == CQESend {
				at = eng.Now() - start
			}
		})
		if err := qp.PostSend(SendRequest{SrcPort: 1, DstIP: fast.IP(), DstGID: fast.GID(), DstQPN: dst.QPN(), Payload: make([]byte, size)}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return at
	}

	slowSmall := measure(slow, 50)
	slowBig := measure(slow, 4000)
	fastBig := measure(fast, 4000)
	if slowBig <= slowSmall {
		t.Fatalf("bigger payload not slower on 1G: %v vs %v", slowBig, slowSmall)
	}
	if fastBig >= slowBig {
		t.Fatalf("400G not faster than 1G for same payload: %v vs %v", fastBig, slowBig)
	}
	// 4066 bytes at 1 Gbps ≈ 32.5µs serialization + 1µs overhead.
	want := sim.Time(float64(4066*8)/1.0) + sim.Microsecond
	if diff := slowBig - want; diff < -sim.Microsecond || diff > sim.Microsecond {
		t.Fatalf("1G serialization = %v, want ≈%v", slowBig, want)
	}
}

// Property: receive-side accounting is exact — every message sent at a
// device is either received, dropped for a counted reason, or still in
// flight (none here since the engine drains).
func TestPropertyRxAccounting(t *testing.T) {
	f := func(nRaw uint8, corruptPct uint8) bool {
		n := int(nRaw)%100 + 1
		p := float64(corruptPct%50) / 100
		eng := sim.New(int64(nRaw)*31 + int64(corruptPct))
		a, b, _ := newPair(eng, sim.Microsecond)
		b.SetRxCorruption(p)
		qa := a.CreateQP(UD)
		qb := b.CreateQP(UD)
		for i := 0; i < n; i++ {
			i := i
			eng.At(sim.Time(i)*sim.Millisecond, func() {
				_ = qa.PostSend(SendRequest{SrcPort: 1, DstIP: b.IP(), DstGID: b.GID(), DstQPN: qb.QPN()})
			})
		}
		eng.Run()
		got := b.Counters.Received + b.Counters.RxDropsCorrupt + b.Counters.RxDropsDown + b.Counters.StaleQPNDrops
		return got == int64(n) && a.Counters.Sent == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Destroying an RC QP mid-flight cancels its retransmission timers (no
// late callbacks fire on the dead QP).
func TestRCDestroyCancelsRetries(t *testing.T) {
	eng := sim.New(1)
	a, b, net := newPair(eng, 10*sim.Microsecond)
	net.dropAll = true
	qa := a.CreateQP(RC)
	qb := b.CreateQP(RC)
	if err := qa.Connect(b.IP(), b.GID(), qb.QPN()); err != nil {
		t.Fatal(err)
	}
	errored := false
	qa.OnCompletion(func(c CQE) {
		if c.Status == StatusRetryExceeded {
			errored = true
		}
	})
	if err := qa.PostSend(SendRequest{SrcPort: 1, Payload: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + 20*sim.Millisecond) // one retransmission in
	a.DestroyQP(qa.QPN())
	eng.Run()
	if errored {
		t.Fatal("destroyed QP still delivered a retry-exceeded CQE")
	}
}

// A UD QP reaches many distinct destinations through one QPN.
func TestUDFanout(t *testing.T) {
	eng := sim.New(1)
	net := newTestNetwork(eng, sim.Microsecond)
	src := NewDevice(eng, net, Config{ID: "src", IP: ip(1), GID: "src", Host: "h"})
	net.add(src)
	qp := src.CreateQP(UD)
	const fanout = 20
	received := make([]int, fanout)
	for i := 0; i < fanout; i++ {
		d := NewDevice(eng, net, Config{
			ID: topo.DeviceID(fmt.Sprintf("dev-%d", i)), IP: ip(byte(10 + i)), GID: fmt.Sprintf("g%d", i), Host: "hh",
		})
		net.add(d)
		dq := d.CreateQP(UD)
		i := i
		dq.OnCompletion(func(c CQE) {
			if c.Type == CQERecv {
				received[i]++
			}
		})
		if err := qp.PostSend(SendRequest{SrcPort: uint16(i + 1), DstIP: d.IP(), DstGID: d.GID(), DstQPN: dq.QPN()}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	for i, n := range received {
		if n != 1 {
			t.Fatalf("destination %d received %d messages", i, n)
		}
	}
	if src.QPCCacheActive() != 0 {
		t.Fatal("UD fan-out consumed connected contexts")
	}
}

// §7.1's operational lesson, reproduced at the transport: during a flap
// window, a default retry budget (7 x 16ms ≈ 100ms) exhausts and breaks
// the connection — failing the training task — while the paper's
// production setting (max retries with a raised RTO) rides the flap out.
func TestRetryBudgetVsFlapWindow(t *testing.T) {
	run := func(rto sim.Time) (broken bool, delivered bool) {
		eng := sim.New(1)
		net := newTestNetwork(eng, 10*sim.Microsecond)
		a := NewDevice(eng, net, Config{ID: "a", IP: ip(1), GID: "a", Host: "h", RCTimeout: rto, RCRetries: 7})
		b := NewDevice(eng, net, Config{ID: "b", IP: ip(2), GID: "b", Host: "h2"})
		net.add(a)
		net.add(b)
		qa := a.CreateQP(RC)
		qb := b.CreateQP(RC)
		if err := qa.Connect(b.IP(), b.GID(), qb.QPN()); err != nil {
			t.Fatal(err)
		}
		if err := qb.Connect(a.IP(), a.GID(), qa.QPN()); err != nil {
			t.Fatal(err)
		}
		qa.OnCompletion(func(c CQE) {
			if c.Type == CQESend && c.Status == StatusOK {
				delivered = true
			}
		})
		// A 3-second flap window: everything on the wire is lost.
		net.dropAll = true
		eng.After(3*sim.Second, func() { net.dropAll = false })
		if err := qa.PostSend(SendRequest{SrcPort: 1, Payload: []byte("grad")}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return qa.broken, delivered
	}

	// Default-ish RTO: the retry budget burns out inside the flap.
	broken, delivered := run(16 * sim.Millisecond)
	if !broken || delivered {
		t.Fatalf("short RTO: broken=%v delivered=%v, want broken", broken, delivered)
	}
	// Production setting: raised RTO spreads 7 retries past the flap.
	broken, delivered = run(600 * sim.Millisecond)
	if broken || !delivered {
		t.Fatalf("raised RTO: broken=%v delivered=%v, want delivered", broken, delivered)
	}
}
