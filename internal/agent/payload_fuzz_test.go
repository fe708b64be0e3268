package agent

import (
	"testing"

	"rpingmesh/internal/sim"
)

// FuzzDecodePayload hardens the probe/ACK codec against corrupted wire
// bytes: decode must never panic, and every accepted payload must survive
// a re-encode/decode round trip.
func FuzzDecodePayload(f *testing.F) {
	f.Add(enc(msgProbe, 1, 0))
	f.Add(enc(msgAck1, 42, 0))
	f.Add(enc(msgAck2, 7, 3*sim.Microsecond))
	f.Add(enc(msgOneWay, 9, 0))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, seq, delay, err := decodePayload(data)
		if err != nil {
			return
		}
		// Accepted payloads re-encode canonically.
		var re []byte
		switch typ {
		case msgProbe:
			re = enc(msgProbe, seq, 0)
		case msgAck1:
			re = enc(msgAck1, seq, 0)
		case msgAck2:
			re = enc(msgAck2, seq, delay)
		case msgOneWay:
			re = enc(msgOneWay, seq, 0)
		default:
			t.Fatalf("decode accepted unknown type %d", typ)
		}
		t2, s2, d2, err2 := decodePayload(re)
		if err2 != nil || t2 != typ || s2 != seq {
			t.Fatalf("roundtrip mismatch: (%d,%d,%v,%v) vs (%d,%d)", t2, s2, d2, err2, typ, seq)
		}
		if typ == msgAck2 && d2 != delay {
			t.Fatalf("ack2 delay lost: %v vs %v", d2, delay)
		}
	})
}
