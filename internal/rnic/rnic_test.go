package rnic

import (
	"net/netip"
	"testing"
	"testing/quick"

	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// testNetwork delivers packets between registered devices after a fixed
// delay, optionally dropping everything.
type testNetwork struct {
	eng     *sim.Engine
	devs    map[netip.Addr]*Device
	delay   sim.Time
	dropAll bool
	sent    int
}

func newTestNetwork(eng *sim.Engine, delay sim.Time) *testNetwork {
	return &testNetwork{eng: eng, devs: make(map[netip.Addr]*Device), delay: delay}
}

func (n *testNetwork) add(d *Device) { n.devs[d.IP()] = d }

func (n *testNetwork) SendPacket(p *Packet) {
	n.sent++
	if n.dropAll {
		return
	}
	dst, ok := n.devs[p.Tuple.DstIP]
	if !ok {
		return
	}
	n.eng.After(n.delay, func() { dst.Deliver(p) })
}

func ip(last byte) netip.Addr { return netip.AddrFrom4([4]byte{10, 0, 0, last}) }

func newPair(eng *sim.Engine, delay sim.Time) (*Device, *Device, *testNetwork) {
	net := newTestNetwork(eng, delay)
	a := NewDevice(eng, net, Config{ID: "rnic-a", IP: ip(1), GID: "gid-a", Host: "host-a"})
	b := NewDevice(eng, net, Config{ID: "rnic-b", IP: ip(2), GID: "gid-b", Host: "host-b"})
	net.add(a)
	net.add(b)
	return a, b, net
}

func TestUDSendReceive(t *testing.T) {
	eng := sim.New(1)
	a, b, _ := newPair(eng, 10*sim.Microsecond)
	qa := a.CreateQP(UD)
	qb := b.CreateQP(UD)

	var sendCQE, recvCQE *CQE
	qa.OnCompletion(func(c CQE) {
		if c.Type == CQESend {
			cc := c
			sendCQE = &cc
		}
	})
	qb.OnCompletion(func(c CQE) {
		if c.Type == CQERecv {
			cc := c
			// The payload is valid only inside the callback: the packet
			// is recycled as soon as it returns, so keep a copy.
			cc.Payload = append([]byte(nil), c.Payload...)
			recvCQE = &cc
		}
	})

	err := qa.PostSend(SendRequest{
		WRID: 7, Payload: []byte("probe"), SrcPort: 4444,
		DstIP: b.IP(), DstGID: b.GID(), DstQPN: qb.QPN(),
	})
	if err != nil {
		t.Fatalf("PostSend: %v", err)
	}
	eng.Run()

	if sendCQE == nil {
		t.Fatal("no send CQE")
	}
	if recvCQE == nil {
		t.Fatal("no recv CQE")
	}
	if sendCQE.WRID != 7 || recvCQE.WRID != 7 {
		t.Fatalf("WRID mismatch: %d / %d", sendCQE.WRID, recvCQE.WRID)
	}
	if string(recvCQE.Payload) != "probe" {
		t.Fatalf("payload = %q", recvCQE.Payload)
	}
	if recvCQE.SrcGID != "gid-a" || recvCQE.SrcQPN != qa.QPN() {
		t.Fatalf("recv src = %s/%d", recvCQE.SrcGID, recvCQE.SrcQPN)
	}
	if recvCQE.Tuple.SrcPort != 4444 || recvCQE.Tuple.DstPort != 4791 {
		t.Fatalf("tuple = %v", recvCQE.Tuple)
	}
	if a.Counters.Sent != 1 || b.Counters.Received != 1 {
		t.Fatalf("counters: %+v / %+v", a.Counters, b.Counters)
	}
}

func TestUDSendCQEAtWireTime(t *testing.T) {
	eng := sim.New(1)
	a, b, _ := newPair(eng, 100*sim.Microsecond)
	qa := a.CreateQP(UD)
	qb := b.CreateQP(UD)
	var sendAt sim.Time = -1
	qa.OnCompletion(func(c CQE) {
		if c.Type == CQESend {
			sendAt = eng.Now() // true time of CQE generation
		}
	})
	if err := qa.PostSend(SendRequest{SrcPort: 1, DstIP: b.IP(), DstGID: b.GID(), DstQPN: qb.QPN(), Payload: make([]byte, 50)}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Wire time = TxOverhead (1µs) + serialization(116B @400G ≈ 2.3ns),
	// far less than the 100µs propagation: the send CQE must NOT wait for
	// delivery.
	if sendAt < 0 {
		t.Fatal("no send CQE")
	}
	if sendAt > 5*sim.Microsecond {
		t.Fatalf("UD send CQE at %v, should be at wire time (~1µs), not delivery", sendAt)
	}
}

func TestRCSendCQEDeferredToACK(t *testing.T) {
	eng := sim.New(1)
	a, b, _ := newPair(eng, 50*sim.Microsecond)
	qa := a.CreateQP(RC)
	qb := b.CreateQP(RC)
	if err := qa.Connect(b.IP(), b.GID(), qb.QPN()); err != nil {
		t.Fatal(err)
	}
	if err := qb.Connect(a.IP(), a.GID(), qa.QPN()); err != nil {
		t.Fatal(err)
	}
	var sendAt sim.Time = -1
	var recvAt sim.Time = -1
	qa.OnCompletion(func(c CQE) {
		if c.Type == CQESend && c.Status == StatusOK {
			sendAt = eng.Now()
		}
	})
	qb.OnCompletion(func(c CQE) {
		if c.Type == CQERecv {
			recvAt = eng.Now()
		}
	})
	if err := qa.PostSend(SendRequest{SrcPort: 2, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if recvAt < 0 || sendAt < 0 {
		t.Fatalf("missing CQEs: send=%v recv=%v", sendAt, recvAt)
	}
	// The RC send CQE must come AFTER the one-way delivery (it waits for
	// the ACK round trip).
	if sendAt <= recvAt {
		t.Fatalf("RC send CQE at %v, before/at delivery %v — must wait for ACK", sendAt, recvAt)
	}
	if sendAt < 100*sim.Microsecond {
		t.Fatalf("RC send CQE at %v, expected after full RTT (~100µs)", sendAt)
	}
}

func TestUCSendCQEImmediate(t *testing.T) {
	eng := sim.New(1)
	a, b, _ := newPair(eng, 50*sim.Microsecond)
	qa := a.CreateQP(UC)
	qb := b.CreateQP(UC)
	if err := qa.Connect(b.IP(), b.GID(), qb.QPN()); err != nil {
		t.Fatal(err)
	}
	var sendAt sim.Time = -1
	qa.OnCompletion(func(c CQE) {
		if c.Type == CQESend {
			sendAt = eng.Now()
		}
	})
	if err := qa.PostSend(SendRequest{SrcPort: 3, Payload: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if sendAt < 0 || sendAt > 5*sim.Microsecond {
		t.Fatalf("UC send CQE at %v, want wire time", sendAt)
	}
}

func TestRCRetransmissionAndBreak(t *testing.T) {
	eng := sim.New(1)
	a, b, net := newPair(eng, 10*sim.Microsecond)
	net.dropAll = true
	qa := a.CreateQP(RC)
	qb := b.CreateQP(RC)
	if err := qa.Connect(b.IP(), b.GID(), qb.QPN()); err != nil {
		t.Fatal(err)
	}
	var status CQEStatus = -1
	qa.OnCompletion(func(c CQE) {
		if c.Type == CQESend {
			status = c.Status
		}
	})
	if err := qa.PostSend(SendRequest{SrcPort: 4, Payload: []byte("z")}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if status != StatusRetryExceeded {
		t.Fatalf("status = %v, want StatusRetryExceeded", status)
	}
	if !qa.broken {
		t.Fatal("QP not broken after retry exhaustion")
	}
	if a.Counters.RCRetransmits != 7 {
		t.Fatalf("retransmits = %d, want 7 (the maximum)", a.Counters.RCRetransmits)
	}
	if a.Counters.RCBroken != 1 {
		t.Fatalf("RCBroken = %d", a.Counters.RCBroken)
	}
	if err := qa.PostSend(SendRequest{SrcPort: 4}); err == nil {
		t.Fatal("PostSend on broken QP succeeded")
	}
}

func TestRCRecoversWhenNetworkHeals(t *testing.T) {
	eng := sim.New(1)
	a, b, net := newPair(eng, 10*sim.Microsecond)
	net.dropAll = true
	qa := a.CreateQP(RC)
	qb := b.CreateQP(RC)
	if err := qa.Connect(b.IP(), b.GID(), qb.QPN()); err != nil {
		t.Fatal(err)
	}
	if err := qb.Connect(a.IP(), a.GID(), qa.QPN()); err != nil {
		t.Fatal(err)
	}
	var status CQEStatus = -1
	qa.OnCompletion(func(c CQE) {
		if c.Type == CQESend {
			status = c.Status
		}
	})
	if err := qa.PostSend(SendRequest{SrcPort: 4, Payload: []byte("z")}); err != nil {
		t.Fatal(err)
	}
	// Heal the network after two RTOs: a retransmission must succeed.
	eng.After(40*sim.Millisecond, func() { net.dropAll = false })
	eng.Run()
	if status != StatusOK {
		t.Fatalf("status = %v, want OK after healing", status)
	}
	if qa.broken {
		t.Fatal("QP broken despite successful retransmit")
	}
	if a.Counters.RCRetransmits == 0 {
		t.Fatal("expected retransmissions")
	}
}

func TestStaleQPNDrop(t *testing.T) {
	eng := sim.New(1)
	a, b, _ := newPair(eng, 10*sim.Microsecond)
	qa := a.CreateQP(UD)
	qb := b.CreateQP(UD)
	staleQPN := qb.QPN()
	b.DestroyQP(staleQPN)
	got := false
	qb.OnCompletion(func(CQE) { got = true })
	if err := qa.PostSend(SendRequest{SrcPort: 5, DstIP: b.IP(), DstGID: b.GID(), DstQPN: staleQPN}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got {
		t.Fatal("destroyed QP received a message")
	}
	if b.Counters.StaleQPNDrops != 1 {
		t.Fatalf("StaleQPNDrops = %d, want 1", b.Counters.StaleQPNDrops)
	}
	// A fresh QP gets a different QPN (monotonic allocation).
	if b.CreateQP(UD).QPN() == staleQPN {
		t.Fatal("QPN reused")
	}
}

func TestWrongQPTypeDrop(t *testing.T) {
	eng := sim.New(1)
	a, b, _ := newPair(eng, sim.Microsecond)
	qa := a.CreateQP(UD)
	qb := b.CreateQP(RC) // mismatched type at destination
	if err := qa.PostSend(SendRequest{SrcPort: 5, DstIP: b.IP(), DstGID: b.GID(), DstQPN: qb.QPN()}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if b.Counters.StaleQPNDrops != 1 {
		t.Fatalf("type-mismatched delivery not dropped: %+v", b.Counters)
	}
}

func TestDownDeviceDrops(t *testing.T) {
	eng := sim.New(1)
	a, b, _ := newPair(eng, sim.Microsecond)
	qa := a.CreateQP(UD)
	qb := b.CreateQP(UD)

	a.SetUp(false)
	if err := qa.PostSend(SendRequest{SrcPort: 6, DstIP: b.IP(), DstGID: b.GID(), DstQPN: qb.QPN()}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if a.Counters.TxDropsDown != 1 || a.Counters.Sent != 0 {
		t.Fatalf("down tx: %+v", a.Counters)
	}

	a.SetUp(true)
	b.SetUp(false)
	if err := qa.PostSend(SendRequest{SrcPort: 6, DstIP: b.IP(), DstGID: b.GID(), DstQPN: qb.QPN()}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if b.Counters.RxDropsDown != 1 || b.Counters.Received != 0 {
		t.Fatalf("down rx: %+v", b.Counters)
	}
}

func TestMisconfiguredDeviceDrops(t *testing.T) {
	eng := sim.New(1)
	a, b, _ := newPair(eng, sim.Microsecond)
	qa := a.CreateQP(UD)
	qb := b.CreateQP(UD)
	a.SetMisconfigured(true)
	if !a.Misconfigured() {
		t.Fatal("flag not set")
	}
	if err := qa.PostSend(SendRequest{SrcPort: 7, DstIP: b.IP(), DstGID: b.GID(), DstQPN: qb.QPN()}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if a.Counters.TxDropsConfig != 1 {
		t.Fatalf("misconfig tx: %+v", a.Counters)
	}
}

func TestRxCorruptionDropRate(t *testing.T) {
	eng := sim.New(1)
	a, b, _ := newPair(eng, sim.Microsecond)
	qa := a.CreateQP(UD)
	qb := b.CreateQP(UD)
	b.SetRxCorruption(0.3)
	const n = 2000
	for i := 0; i < n; i++ {
		i := i
		eng.At(sim.Time(i)*sim.Millisecond, func() {
			_ = qa.PostSend(SendRequest{SrcPort: 8, DstIP: b.IP(), DstGID: b.GID(), DstQPN: qb.QPN()})
		})
	}
	eng.Run()
	rate := float64(b.Counters.RxDropsCorrupt) / n
	if rate < 0.25 || rate > 0.35 {
		t.Fatalf("corruption drop rate = %.3f, want ~0.3", rate)
	}
	if b.Counters.Received+b.Counters.RxDropsCorrupt != n {
		t.Fatalf("accounting: %+v", b.Counters)
	}
}

func TestQPCCacheMisses(t *testing.T) {
	eng := sim.New(1)
	net := newTestNetwork(eng, sim.Microsecond)
	a := NewDevice(eng, net, Config{ID: "rnic-a", IP: ip(1), GID: "a", Host: "h", QPCCacheQPs: 4})
	b := NewDevice(eng, net, Config{ID: "rnic-b", IP: ip(2), GID: "b", Host: "h2"})
	net.add(a)
	net.add(b)
	remote := b.CreateQP(UC)
	// 16 connected QPs against a 4-entry cache: sends must miss often.
	var qps []*QP
	for i := 0; i < 16; i++ {
		q := a.CreateQP(UC)
		if err := q.Connect(b.IP(), b.GID(), remote.QPN()); err != nil {
			t.Fatal(err)
		}
		qps = append(qps, q)
	}
	if a.QPCCacheActive() != 16 {
		t.Fatalf("active contexts = %d", a.QPCCacheActive())
	}
	for round := 0; round < 50; round++ {
		for _, q := range qps {
			q := q
			eng.After(sim.Time(round)*sim.Millisecond, func() { _ = q.PostSend(SendRequest{SrcPort: 9}) })
		}
	}
	eng.Run()
	if a.Counters.QPCCacheMisses == 0 {
		t.Fatal("no QPC cache misses despite 4x oversubscription")
	}
	// A UD QP never touches the connected-context cache.
	misses := a.Counters.QPCCacheMisses
	ud := a.CreateQP(UD)
	qb := b.CreateQP(UD)
	for i := 0; i < 100; i++ {
		i := i
		eng.After(sim.Time(i)*sim.Millisecond, func() {
			_ = ud.PostSend(SendRequest{SrcPort: 10, DstIP: b.IP(), DstGID: b.GID(), DstQPN: qb.QPN()})
		})
	}
	eng.Run()
	if a.Counters.QPCCacheMisses != misses {
		t.Fatal("UD sends consumed QPC cache")
	}
	// Destroying connected QPs releases contexts.
	for _, q := range qps {
		a.DestroyQP(q.QPN())
	}
	if a.QPCCacheActive() != 0 {
		t.Fatalf("active contexts after destroy = %d", a.QPCCacheActive())
	}
}

func TestConnectValidation(t *testing.T) {
	eng := sim.New(1)
	a, b, _ := newPair(eng, sim.Microsecond)
	ud := a.CreateQP(UD)
	if err := ud.Connect(b.IP(), b.GID(), 1); err == nil {
		t.Fatal("Connect on UD QP succeeded")
	}
	rc := a.CreateQP(RC)
	if err := rc.PostSend(SendRequest{SrcPort: 1}); err == nil {
		t.Fatal("send on unconnected RC QP succeeded")
	}
	if rc.connected {
		t.Fatal("unconnected QP reports connected")
	}
	udNoDst := a.CreateQP(UD)
	if err := udNoDst.PostSend(SendRequest{SrcPort: 1}); err == nil {
		t.Fatal("UD send without destination succeeded")
	}
	a.DestroyQP(rc.QPN())
	if err := rc.PostSend(SendRequest{SrcPort: 1}); err == nil {
		t.Fatal("send on destroyed QP succeeded")
	}
	if err := rc.Connect(b.IP(), b.GID(), 1); err == nil {
		t.Fatal("connect on destroyed QP succeeded")
	}
}

func TestCQETimestampsUseDeviceClock(t *testing.T) {
	eng := sim.New(1)
	net := newTestNetwork(eng, 10*sim.Microsecond)
	offset := 90 * sim.Second
	a := NewDevice(eng, net, Config{ID: "a", IP: ip(1), GID: "a", Host: "h", Clock: Clock{Offset: offset}})
	b := NewDevice(eng, net, Config{ID: "b", IP: ip(2), GID: "b", Host: "h2"})
	net.add(a)
	net.add(b)
	qa := a.CreateQP(UD)
	qb := b.CreateQP(UD)
	var ts sim.Time
	var trueTime sim.Time
	qa.OnCompletion(func(c CQE) {
		if c.Type == CQESend {
			ts = c.Timestamp
			trueTime = eng.Now()
		}
	})
	if err := qa.PostSend(SendRequest{SrcPort: 1, DstIP: b.IP(), DstGID: b.GID(), DstQPN: qb.QPN()}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if ts != trueTime+offset {
		t.Fatalf("CQE timestamp %v, true %v, offset %v", ts, trueTime, offset)
	}
}

func TestClockDrift(t *testing.T) {
	c := Clock{Offset: 0, DriftPPM: 50}
	now := 100 * sim.Second
	got := c.Read(now)
	want := now + 5*sim.Millisecond // 50ppm of 100s
	if got != want {
		t.Fatalf("drifted read = %v, want %v", got, want)
	}
}

func TestHostProcessingDelayScalesWithLoad(t *testing.T) {
	eng := sim.New(1)
	h := NewHost(eng, "host-a", Clock{})
	mean := func(load float64, n int) float64 {
		h.SetLoad(load)
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(h.ProcessingDelay())
		}
		return sum / float64(n)
	}
	idle := mean(0, 2000)
	busy := mean(0.9, 2000)
	overload := mean(0.99, 2000)
	if busy < 5*idle {
		t.Fatalf("load 0.9 delay %.0fns not >> idle %.0fns", busy, idle)
	}
	if overload < 5*busy {
		t.Fatalf("load 0.99 delay %.0fns not >> load 0.9 %.0fns", overload, busy)
	}
}

func TestHostLoadClamping(t *testing.T) {
	eng := sim.New(1)
	h := NewHost(eng, "h", Clock{})
	h.SetLoad(-5)
	if h.Load() != 0 {
		t.Fatalf("Load = %v", h.Load())
	}
	h.SetLoad(2)
	if h.Load() >= 1 {
		t.Fatalf("Load = %v, must stay < 1", h.Load())
	}
	if d := h.ProcessingDelay(); d <= 0 {
		t.Fatalf("delay = %v", d)
	}
}

func TestHostDownTakesDevicesDown(t *testing.T) {
	eng := sim.New(1)
	net := newTestNetwork(eng, sim.Microsecond)
	h := NewHost(eng, "host-a", Clock{})
	d1 := NewDevice(eng, net, Config{ID: "r1", IP: ip(1), GID: "g1", Host: "host-a"})
	d2 := NewDevice(eng, net, Config{ID: "r2", IP: ip(2), GID: "g2", Host: "host-a"})
	h.Attach(d1)
	h.Attach(d2)
	if len(h.Devices()) != 2 {
		t.Fatal("Attach failed")
	}
	h.SetDown(true)
	if d1.Up() || d2.Up() || !h.Down() {
		t.Fatal("host down did not lower devices")
	}
	h.SetDown(false)
	if !d1.Up() || !d2.Up() {
		t.Fatal("host up did not raise devices")
	}
}

// Property: for any clock offsets, a UD send CQE timestamp minus the
// device offset equals the true wire time (drift-free case) — the basis
// of the paper's claim that no synchronization is needed.
func TestPropertyCQEOffsetsCancel(t *testing.T) {
	f := func(offMs int32) bool {
		eng := sim.New(int64(offMs))
		net := newTestNetwork(eng, 10*sim.Microsecond)
		off := sim.Time(offMs) * sim.Millisecond
		a := NewDevice(eng, net, Config{ID: "a", IP: ip(1), GID: "a", Host: "h", Clock: Clock{Offset: off}})
		b := NewDevice(eng, net, Config{ID: "b", IP: ip(2), GID: "b", Host: "h"})
		net.add(a)
		net.add(b)
		qa := a.CreateQP(UD)
		qb := b.CreateQP(UD)
		var ok bool
		qa.OnCompletion(func(c CQE) {
			if c.Type == CQESend {
				ok = c.Timestamp-off == eng.Now()
			}
		})
		_ = qa.PostSend(SendRequest{SrcPort: 1, DstIP: b.IP(), DstGID: b.GID(), DstQPN: qb.QPN()})
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQPTypeString(t *testing.T) {
	if RC.String() != "RC" || UC.String() != "UC" || UD.String() != "UD" {
		t.Fatal("QPType.String mismatch")
	}
	if KindMessage.String() != "msg" || KindTransportAck.String() != "rc-ack" {
		t.Fatal("PacketKind.String mismatch")
	}
	if QPType(9).String() == "" || PacketKind(9).String() == "" {
		t.Fatal("unknown enums must stringify")
	}
}

func TestDropNetwork(t *testing.T) {
	var n DropNetwork
	n.SendPacket(&Packet{})
	if n.Dropped != 1 {
		t.Fatal("DropNetwork did not count")
	}
}

func TestDeviceAccessors(t *testing.T) {
	eng := sim.New(1)
	d := NewDevice(eng, &DropNetwork{}, Config{ID: "x", IP: ip(9), GID: "g", Host: "hh"})
	if d.ID() != topo.DeviceID("x") || d.IP() != ip(9) || d.GID() != "g" || d.Host() != topo.HostID("hh") {
		t.Fatal("accessor mismatch")
	}
}

func BenchmarkUDProbeRoundtrip(b *testing.B) {
	eng := sim.New(1)
	devA, devB, _ := newPair(eng, 10*sim.Microsecond)
	qa := devA.CreateQP(UD)
	qb := devB.CreateQP(UD)
	qb.OnCompletion(func(c CQE) {
		if c.Type == CQERecv {
			_ = qb.PostSend(SendRequest{SrcPort: c.Tuple.SrcPort, DstIP: c.Tuple.SrcIP, DstGID: c.SrcGID, DstQPN: c.SrcQPN})
		}
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = qa.PostSend(SendRequest{SrcPort: 1000, DstIP: devB.IP(), DstGID: devB.GID(), DstQPN: qb.QPN(), Payload: make([]byte, 50)})
		eng.Run()
	}
}
