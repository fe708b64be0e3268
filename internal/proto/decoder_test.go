package proto

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// randomBatch draws a batch whose routes reuse a small vocabulary: one
// name serves as host, device and peer alike, paths are byte-prefixes of
// one another, and some paths are empty.
func randomBatch(rng *rand.Rand) *RecordBatch {
	names := []string{"x", "host-1", "rnic-1-0", "host-2", "rnic-2-0", ""}
	paths := [][]topo.LinkID{nil, {7}, {7, 8}, {7, 8, 9}, {7, 8, 9, 10}, {8, 9}, {1 << 40, -3}}
	name := func() string { return names[rng.Intn(len(names))] }
	path := func() []topo.LinkID {
		p := paths[rng.Intn(len(paths))]
		return append([]topo.LinkID(nil), p...) // the sender's own copy
	}
	b := &RecordBatch{Host: topo.HostID(name()), Sent: sim.Time(rng.Int63n(1 << 40)), Seq: rng.Uint64()}
	routes := 1 + rng.Intn(6)
	for i := 0; i < routes; i++ {
		rt := Route{
			Kind:   ProbeKind(int(ToRMesh) + rng.Intn(int(ServiceTracing-ToRMesh)+1)),
			SrcDev: topo.DeviceID(name()), SrcHost: topo.HostID(name()),
			DstDev: topo.DeviceID(name()), DstHost: topo.HostID(name()),
			SrcPort: uint16(rng.Intn(1 << 16)), DstQPN: rnic.QPN(rng.Uint32()),
			ProbePath: path(), AckPath: path(),
		}
		if rng.Intn(2) == 0 {
			rt.SrcIP = netip.AddrFrom4([4]byte{10, 0, byte(i), 1})
			rt.DstIP = netip.MustParseAddr("fd00::2")
		}
		b.AddRoute(rt)
	}
	for i := rng.Intn(40); i > 0; i-- {
		b.Append(int32(rng.Intn(routes)), rng.Uint64(), sim.Time(rng.Int63()), uint8(rng.Intn(4)),
			sim.Time(rng.Int63()), sim.Time(rng.Int63()), sim.Time(rng.Int63()), sim.Time(rng.Int63()))
	}
	return b
}

// requireSameDecode checks that got, what a long-lived Decoder made of
// data, is what a one-shot decode makes of it: the same re-encoding and
// the same value for every record.
func requireSameDecode(t *testing.T, got *RecordBatch, data []byte) {
	t.Helper()
	var want RecordBatch
	if err := want.UnmarshalBinary(data); err != nil {
		t.Fatalf("fresh decode: %v", err)
	}
	enc, _ := got.MarshalBinary()
	if !bytes.Equal(enc, data) {
		t.Fatal("decoded batch re-encodes to other bytes")
	}
	if got.Host != want.Host || got.Sent != want.Sent || got.Seq != want.Seq || got.Len() != want.Len() {
		t.Fatalf("header %q/%d/%d/%d records, want %q/%d/%d/%d", got.Host, got.Sent, got.Seq, got.Len(),
			want.Host, want.Sent, want.Seq, want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if g, w := got.ResultAt(i), want.ResultAt(i); !reflect.DeepEqual(g, w) {
			t.Fatalf("record %d:\n  got  %+v\n  want %+v", i, g, w)
		}
	}
}

// TestDecoderMatchesFreshDecode is the interning decoder's differential
// test: one Decoder decodes a random stream of batches, and each must
// come out as a fresh UnmarshalBinary does — including right after a
// batch rejected partway through its routes, which must leave nothing
// behind that the next decode could pick up.
func TestDecoderMatchesFreshDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	dec := NewDecoder(1 << 20)
	var b RecordBatch
	for i := 0; i < 300; i++ {
		src := randomBatch(rng)
		data, _ := src.MarshalBinary()
		if i%5 == 4 {
			// Cut the frame short, break the last route's ack-path count
			// (after its strings and probe path are read), or add a byte.
			bad := bytes.Clone(data)
			switch i % 3 {
			case 0:
				bad = bad[:1+rng.Intn(len(bad)-1)]
			case 1:
				last := src.Route(int32(src.Routes() - 1))
				ackCount := len(bad) - src.Len()*recordWireSize - 4 - 8*len(last.AckPath) - 4
				bad[ackCount+3] = 0xff
			case 2:
				bad = append(bad, 0)
			}
			if dec.Decode(&b, bad) == nil {
				t.Fatalf("batch %d: corrupt frame accepted", i)
			}
		}
		if err := dec.Decode(&b, data); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		requireSameDecode(t, &b, data)
	}
}

// TestDecoderSharesOnlyWhatIsImmutable: a later batch shares an earlier
// one's paths but not its route table or columns, and every slice it
// shares or carves from an arena is full, so a consumer's append
// reallocates instead of writing into memory that is not its own.
func TestDecoderSharesOnlyWhatIsImmutable(t *testing.T) {
	data, _ := sampleRecordBatch().MarshalBinary()
	dec := NewDecoder(1 << 20)
	var a, b RecordBatch
	if err := dec.Decode(&a, data); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&b, data); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Route(0).ProbePath, b.Route(0).ProbePath
	if &pa[0] != &pb[0] {
		t.Fatal("a repeated path was not interned")
	}
	if &a.routes[0] == &b.routes[0] || &a.seq[0] == &b.seq[0] || &a.sentAt[0] == &b.sentAt[0] {
		t.Fatal("route table or columns shared between batches")
	}
	for name, full := range map[string]bool{
		"path":   cap(pa) == len(pa),
		"sentAt": cap(a.sentAt) == len(a.sentAt),
		"rtt":    cap(a.rtt) == len(a.rtt),
		"probd":  cap(a.probd) == len(a.probd),
		"respd":  cap(a.respd) == len(a.respd),
		"oneway": cap(a.oneway) == len(a.oneway),
	} {
		if !full {
			t.Errorf("%s has room past its end", name)
		}
	}
	a.sentAt = append(a.sentAt, 99)
	if a.rtt[0] != 4500 {
		t.Fatalf("an append to one time column wrote into the next: rtt[0] = %d", a.rtt[0])
	}
}
