package agent

import (
	"encoding/binary"
	"fmt"

	"rpingmesh/internal/sim"
)

// Wire payloads (§5): probes and ACKs carry a 50-byte payload with the
// fields needed by the protocol; the rest is padding. Layout:
//
//	[0]    message type
//	[1:9]  probe sequence number (big endian)
//	[9:17] responder processing delay in ns (ACK2 only)
const (
	msgProbe byte = iota + 1
	msgAck1
	msgAck2
	// msgOneWay is the rail-optimized intra-host probe (§7.4): prober and
	// responder QPs belong to the same Agent, so no ACKs are needed — the
	// Agent detects one-way timeouts and measures one-way delay against
	// its own calibration of the two device clocks.
	msgOneWay
)

// payloadSize is the paper's probe/ACK payload size.
const payloadSize = 50

// encodePayload writes one payload into buf, the Agent's reusable
// scratch, and returns it; PostSend copies the bytes into the packet.
// respDelay is ACK2's field and zero for every other type.
func encodePayload(buf *[payloadSize]byte, typ byte, seq uint64, respDelay sim.Time) []byte {
	*buf = [payloadSize]byte{}
	buf[0] = typ
	binary.BigEndian.PutUint64(buf[1:9], seq)
	binary.BigEndian.PutUint64(buf[9:17], uint64(respDelay))
	return buf[:]
}

func decodePayload(b []byte) (typ byte, seq uint64, respDelay sim.Time, err error) {
	if len(b) < 17 {
		return 0, 0, 0, fmt.Errorf("agent: short payload (%d bytes)", len(b))
	}
	typ = b[0]
	if typ != msgProbe && typ != msgAck1 && typ != msgAck2 && typ != msgOneWay {
		return 0, 0, 0, fmt.Errorf("agent: unknown payload type %d", typ)
	}
	seq = binary.BigEndian.Uint64(b[1:9])
	respDelay = sim.Time(binary.BigEndian.Uint64(b[9:17]))
	return typ, seq, respDelay, nil
}
