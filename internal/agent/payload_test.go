package agent

import (
	"net/netip"
	"testing"
	"testing/quick"

	"rpingmesh/internal/ecmp"
	"rpingmesh/internal/sim"
)

// enc encodes into a fresh buffer.
func enc(typ byte, seq uint64, respDelay sim.Time) []byte {
	var buf [payloadSize]byte
	return encodePayload(&buf, typ, seq, respDelay)
}

func TestPayloadSizes(t *testing.T) {
	for _, b := range [][]byte{enc(msgProbe, 1, 0), enc(msgAck1, 2, 0), enc(msgAck2, 3, 4)} {
		if len(b) != payloadSize {
			t.Fatalf("payload size = %d, want %d (the paper's 50 bytes)", len(b), payloadSize)
		}
	}
}

func TestPayloadRoundtrip(t *testing.T) {
	typ, seq, d, err := decodePayload(enc(msgProbe, 12345, 0))
	if err != nil || typ != msgProbe || seq != 12345 || d != 0 {
		t.Fatalf("probe roundtrip: %v %v %v %v", typ, seq, d, err)
	}
	typ, seq, d, err = decodePayload(enc(msgAck1, 7, 0))
	if err != nil || typ != msgAck1 || seq != 7 {
		t.Fatalf("ack1 roundtrip: %v %v %v %v", typ, seq, d, err)
	}
	typ, seq, d, err = decodePayload(enc(msgAck2, 9, 42*sim.Microsecond))
	if err != nil || typ != msgAck2 || seq != 9 || d != 42*sim.Microsecond {
		t.Fatalf("ack2 roundtrip: %v %v %v %v", typ, seq, d, err)
	}
}

func TestPayloadRejectsGarbage(t *testing.T) {
	if _, _, _, err := decodePayload(nil); err == nil {
		t.Fatal("nil payload accepted")
	}
	if _, _, _, err := decodePayload(make([]byte, 5)); err == nil {
		t.Fatal("short payload accepted")
	}
	bad := enc(msgProbe, 1, 0)
	bad[0] = 99
	if _, _, _, err := decodePayload(bad); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestPropertyPayloadRoundtrip(t *testing.T) {
	f := func(seq uint64, delay int64) bool {
		if delay < 0 {
			delay = -delay
		}
		typ, s, d, err := decodePayload(enc(msgAck2, seq, sim.Time(delay)))
		return err == nil && typ == msgAck2 && s == seq && d == sim.Time(delay)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWRIDSpaces(t *testing.T) {
	// Probe and ACK WRID spaces must never collide.
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		p, a := probeWRID(i), ackWRID(i)
		if p == a || seen[p] || seen[a] {
			t.Fatalf("WRID collision at %d", i)
		}
		seen[p], seen[a] = true, true
		if isAckWRID(p) || !isAckWRID(a) {
			t.Fatal("WRID space tags wrong")
		}
		if wridPayload(p) != i || wridPayload(a) != i {
			t.Fatal("WRID payload roundtrip")
		}
	}
}

func TestSortTuples(t *testing.T) {
	mk := func(port uint16) ecmp.FiveTuple {
		return ecmp.RoCETuple(netip.AddrFrom4([4]byte{10, 0, 0, 1}), netip.AddrFrom4([4]byte{10, 0, 0, 2}), port)
	}
	ts := []ecmp.FiveTuple{mk(300), mk(100), mk(200)}
	sortTuples(ts)
	if ts[0].SrcPort != 100 || ts[1].SrcPort != 200 || ts[2].SrcPort != 300 {
		t.Fatalf("sorted = %v", ts)
	}
	sortTuples(nil) // must not panic
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.setDefaults()
	if c.ProbeTimeout != 500*sim.Millisecond {
		t.Fatalf("ProbeTimeout = %v", c.ProbeTimeout)
	}
	if c.UploadInterval != 5*sim.Second {
		t.Fatalf("UploadInterval = %v", c.UploadInterval)
	}
	if c.PinglistRefresh != 5*sim.Minute {
		t.Fatalf("PinglistRefresh = %v", c.PinglistRefresh)
	}
	if c.ServiceProbeInterval != 10*sim.Millisecond {
		t.Fatalf("ServiceProbeInterval = %v", c.ServiceProbeInterval)
	}
}
