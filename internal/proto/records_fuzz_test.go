package proto

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// sampleRecordBatch builds a small batch exercising every encoded field:
// interned routes shared across records, v4 and v6 addresses, an invalid
// (zero) address, paths, timeouts, and one-way probes.
func sampleRecordBatch() *RecordBatch {
	b := &RecordBatch{Host: "host-0", Sent: 12 * sim.Millisecond, Seq: 3}
	r0 := b.AddRoute(Route{
		Kind:   ToRMesh,
		SrcDev: "rnic-0", SrcHost: "host-0",
		DstDev: "rnic-1", DstHost: "host-1",
		SrcIP:     netip.MustParseAddr("10.0.0.1"),
		DstIP:     netip.MustParseAddr("10.0.0.2"),
		SrcPort:   49152,
		DstQPN:    rnic.QPN(77),
		ProbePath: []topo.LinkID{1, 2, 3},
		AckPath:   []topo.LinkID{3, 2, 1},
	})
	r1 := b.AddRoute(Route{
		Kind:   ServiceTracing,
		SrcDev: "rnic-0", SrcHost: "host-0",
		DstDev: "rnic-9", DstHost: "host-9",
		SrcIP:   netip.MustParseAddr("fd00::1"),
		SrcPort: 50000,
	})
	b.Append(r0, 1, sim.Millisecond, 0, 4500, 300, 250, 0)
	b.Append(r0, 2, 2*sim.Millisecond, RecTimeout, 0, 0, 0, 0)
	b.Append(r1, 3, 3*sim.Millisecond, RecOneWay, 0, 0, 0, 2100)
	return b
}

// FuzzRecordBatchRoundTrip hardens the flat batch codec against
// corrupted wire bytes: UnmarshalBinary must never panic, and every
// accepted buffer must survive a canonical re-encode/decode round trip
// byte-for-byte.
func FuzzRecordBatchRoundTrip(f *testing.F) {
	good, err := sampleRecordBatch().MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	empty, _ := (&RecordBatch{Host: "h", Sent: 1}).MarshalBinary()
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte{recordWireVersion})
	f.Add([]byte{0xFF, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		var b RecordBatch
		if err := b.UnmarshalBinary(data); err != nil {
			return
		}
		// Accepted buffers re-encode canonically…
		enc, err := b.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode of accepted batch failed: %v", err)
		}
		// …and the canonical form is a fixed point.
		var b2 RecordBatch
		if err := b2.UnmarshalBinary(enc); err != nil {
			t.Fatalf("decode of canonical form failed: %v", err)
		}
		enc2, err := b2.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("canonical encoding is not a fixed point")
		}
		if b2.Len() != b.Len() || b2.Routes() != b.Routes() {
			t.Fatalf("round trip changed shape: %d/%d records, %d/%d routes",
				b.Len(), b2.Len(), b.Routes(), b2.Routes())
		}
	})
}

// TestRecordsEncodeDeterministic pins the encoding as a pure function of
// batch contents: building the same batch twice, and once from its boxed
// form, yields byte-identical buffers. The determinism make target runs
// this at GOMAXPROCS 1 and 8.
func TestRecordsEncodeDeterministic(t *testing.T) {
	a, err := sampleRecordBatch().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampleRecordBatch().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two identical batches encoded differently")
	}

	// Decode and re-encode: still the same bytes.
	var dec RecordBatch
	if err := dec.UnmarshalBinary(a); err != nil {
		t.Fatal(err)
	}
	c, err := dec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("decode/re-encode changed the bytes")
	}

	// AppendBinary is MarshalBinary behind a prefix.
	d, _ := sampleRecordBatch().AppendBinary([]byte("prefix"))
	if !bytes.Equal(d, append([]byte("prefix"), a...)) {
		t.Fatal("AppendBinary differs from MarshalBinary")
	}

	// The boxed encoder re-interns the sample's routes in the same order,
	// so the boxed form encodes to the very same bytes — with fresh scratch
	// and with scratch another batch has used.
	var enc BatchEncoder
	ub := sampleRecordBatch().ToUploadBatch()
	for i := 0; i < 3; i++ {
		if e := enc.AppendBinary(nil, &ub); !bytes.Equal(e, a) {
			t.Fatalf("boxed encoding %d differs from the flat one", i)
		}
		other := manyRoutesBatch().ToUploadBatch()
		enc.AppendBinary(nil, &other)
	}
}

// manyRoutesBatch spreads records over more routes than one map bucket
// holds, first seen in an order that is neither sorted nor the table's.
func manyRoutesBatch() *RecordBatch {
	b := &RecordBatch{Host: "host-0", Sent: 1, Seq: 1}
	const routes = 48
	for i := 0; i < routes; i++ {
		b.AddRoute(Route{
			Kind: InterToR, SrcDev: "rnic-0", SrcHost: "host-0",
			DstDev: topo.DeviceID(fmt.Sprintf("rnic-%d", i)), DstHost: "host-1",
			SrcPort: uint16(i), ProbePath: []topo.LinkID{topo.LinkID(i)},
		})
	}
	for i := 0; i < 5*routes; i++ {
		b.Append(int32(i*29%routes), uint64(i), sim.Time(i), 0, 100, 10, 10, 0)
	}
	return b
}

// TestBatchEncoderInternsInOrder pins route interning: results that
// share addressing fields and path slices share one route entry, entries
// are numbered by first appearance (never by map order), and equal paths
// held in distinct slices stay distinct routes — so goldens and the
// bench fingerprint cannot move with the encoder's scratch state.
func TestBatchEncoderInternsInOrder(t *testing.T) {
	src := manyRoutesBatch()
	ub := src.ToUploadBatch()
	var first []byte
	for run := 0; run < 8; run++ {
		var enc BatchEncoder
		if run%2 == 1 {
			warm := sampleRecordBatch().ToUploadBatch()
			enc.AppendBinary(nil, &warm)
		}
		got := enc.AppendBinary(nil, &ub)
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("run %d encoded differently", run)
		}
	}
	var dec RecordBatch
	if err := dec.UnmarshalBinary(first); err != nil {
		t.Fatal(err)
	}
	if dec.Routes() != src.Routes() || dec.Len() != src.Len() {
		t.Fatalf("decoded %d routes / %d records, want %d / %d", dec.Routes(), dec.Len(), src.Routes(), src.Len())
	}
	next := int32(0)
	for i := 0; i < dec.Len(); i++ {
		if ri := dec.RouteIndex(i); ri > next {
			t.Fatalf("record %d introduces route %d before route %d", i, ri, next)
		} else if ri == next {
			next++
		}
	}
	if !reflect.DeepEqual(dec.ToUploadBatch(), ub) {
		t.Fatal("boxed encoding lost values")
	}

	// Same addressing, equal paths, different slices: two routes.
	p := ub.Results[0]
	p.ProbePath = append([]topo.LinkID(nil), p.ProbePath...)
	two := UploadBatch{Host: "h", Results: []ProbeResult{ub.Results[0], p, ub.Results[0]}}
	var enc BatchEncoder
	if err := dec.UnmarshalBinary(enc.AppendBinary(nil, &two)); err != nil {
		t.Fatal(err)
	}
	if dec.Routes() != 2 || dec.RouteIndex(0) != 0 || dec.RouteIndex(1) != 1 || dec.RouteIndex(2) != 0 {
		t.Fatalf("interned %d routes for two path identities", dec.Routes())
	}
}

// TestRecordsRoundTripValues checks value fidelity through the boxed
// compatibility conversions: Records -> UploadBatch -> Records preserves
// every ProbeResult field.
func TestRecordsRoundTripValues(t *testing.T) {
	b := sampleRecordBatch()
	ub := b.ToUploadBatch()
	back := RecordsFromBatch(ub)
	if back.Len() != b.Len() {
		t.Fatalf("len %d != %d", back.Len(), b.Len())
	}
	for i := 0; i < b.Len(); i++ {
		want, got := b.ResultAt(i), back.ResultAt(i)
		// Path slices may differ in identity; compare contents.
		if len(want.ProbePath) != len(got.ProbePath) || len(want.AckPath) != len(got.AckPath) {
			t.Fatalf("record %d path shape mismatch", i)
		}
		for j := range want.ProbePath {
			if want.ProbePath[j] != got.ProbePath[j] {
				t.Fatalf("record %d probe path differs", i)
			}
		}
		for j := range want.AckPath {
			if want.AckPath[j] != got.AckPath[j] {
				t.Fatalf("record %d ack path differs", i)
			}
		}
		want.ProbePath, got.ProbePath = nil, nil
		want.AckPath, got.AckPath = nil, nil
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("record %d mismatch:\n  want %+v\n  got  %+v", i, want, got)
		}
	}
}
