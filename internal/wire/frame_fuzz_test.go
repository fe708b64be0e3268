package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"net/netip"
	"testing"

	"rpingmesh/internal/proto"
	"rpingmesh/internal/topo"
)

// controlFrame frames one control request the way a client would.
func controlFrame(t testing.TB, req *request) []byte {
	t.Helper()
	var f framer
	frame, err := f.stageJSON(req)
	if err == nil {
		err = f.seal(frame)
	}
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(f.wbuf)
}

// uploadFrame frames one boxed batch the way Client.Upload would.
func uploadFrame(t testing.TB, ub proto.UploadBatch) []byte {
	t.Helper()
	var f framer
	var enc proto.BatchEncoder
	if err := f.seal(enc.AppendBinary(f.stage(kindUpload), &ub)); err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(f.wbuf)
}

// sampleUpload exercises every encoded field: a route shared by two
// results, v4/v6/invalid addresses, paths, a timeout, a one-way probe.
func sampleUpload() proto.UploadBatch {
	path, ack := []topo.LinkID{1, 2, 3}, []topo.LinkID{3, 2, 1}
	shared := proto.ProbeResult{
		Kind: proto.InterToR, SrcDev: "rnic-0", SrcHost: "host-0", DstDev: "rnic-1", DstHost: "host-1",
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2"),
		SrcPort: 49152, DstQPN: 77, ProbePath: path, AckPath: ack,
	}
	a, b := shared, shared
	a.Seq, a.SentAt, a.NetworkRTT, a.ProberDelay, a.ResponderDelay = 1, 1000, 4500, 300, 250
	b.Seq, b.SentAt, b.Timeout = 2, 2000, true
	c := proto.ProbeResult{
		Seq: 3, Kind: proto.ServiceTracing, SrcDev: "rnic-0", SrcHost: "host-0", DstDev: "rnic-9",
		SrcIP: netip.MustParseAddr("fd00::1"), SentAt: 3000, OneWay: true, OneWayDelay: 2100, NetworkRTT: 4200,
	}
	return proto.UploadBatch{Host: "host-0", Sent: 12345, Seq: 3, Results: []proto.ProbeResult{a, b, c}}
}

// readBounded reads one frame from data and fails the test if the read
// buffer outgrew what a peer sending data could justify: the header's
// length is a claim, not a reason to allocate.
func readBounded(t *testing.T, f *framer, data []byte) (byte, []byte, error) {
	t.Helper()
	kind, body, err := f.read(bytes.NewReader(data))
	if limit := max(2*len(data), len(data)+readChunk); cap(f.rbuf) > limit {
		t.Fatalf("read buffer grew to %d bytes for %d bytes received (limit %d)", cap(f.rbuf), len(data), limit)
	}
	return kind, body, err
}

// FuzzReadFrame hardens the framing against hostile bytes: arbitrary
// input must never panic, never allocate beyond what was received, and a
// control frame that decodes must re-frame and re-read identically.
func FuzzReadFrame(f *testing.F) {
	f.Add(controlFrame(f, &request{Op: opPinglists, Host: "h"}))
	f.Add([]byte{})
	f.Add([]byte{kindControl, 0, 0, 0, 0})
	f.Add([]byte{kindControl, 0xFF, 0xFF, 0xFF, 0xFF, 'x'})
	f.Add([]byte{kindControl, 0x01, 0x00, 0x00, 0x00, 'x'}) // claims 16 MiB, sends 1 byte
	f.Add([]byte{kindControl, 0, 0, 0, 2, '{', '}'})
	f.Add([]byte{9, 0, 0, 0, 2, '{', '}'})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr framer
		kind, body, err := readBounded(t, &fr, data)
		if err != nil || kind != kindControl {
			return
		}
		var req request
		if json.Unmarshal(body, &req) != nil {
			return
		}
		kind, body, err = fr.read(bytes.NewReader(controlFrame(t, &req)))
		if err != nil || kind != kindControl {
			t.Fatalf("re-read failed: kind %d, %v", kind, err)
		}
		var again request
		if err := json.Unmarshal(body, &again); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Op != req.Op || again.Host != req.Host {
			t.Fatalf("frame roundtrip mismatch: %+v vs %+v", again, req)
		}
	})
}

// FuzzUploadFrame is FuzzReadFrame's twin for the record frame: whatever
// bytes arrive, the server's read + decode never panics or over-
// allocates, and a frame it accepts re-encodes to the same bytes — the
// canonical-fixed-point property proto.FuzzRecordBatchRoundTrip holds
// for the payload, here for the frame. A connection's decoder, which
// interns what it read before, decodes it twice to those same bytes.
func FuzzUploadFrame(f *testing.F) {
	good := uploadFrame(f, sampleUpload())
	f.Add(good)
	f.Add(uploadFrame(f, proto.UploadBatch{Host: "h", Sent: 1}))
	f.Add(good[:len(good)-1])
	f.Add(append(bytes.Clone(good), 0))
	f.Add([]byte{kindUpload, 0, 0, 0, 0})
	f.Add([]byte{kindUpload, 0x01, 0x00, 0x00, 0x00, 1}) // claims 16 MiB
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr framer
		kind, body, err := readBounded(t, &fr, data)
		if err != nil || kind != kindUpload {
			return
		}
		var rb proto.RecordBatch
		if rb.UnmarshalBinary(body) != nil {
			return
		}
		frame, _ := rb.AppendBinary(fr.stage(kindUpload))
		if err := fr.seal(frame); err != nil {
			t.Fatalf("re-frame of accepted batch failed: %v", err)
		}
		if !bytes.Equal(fr.wbuf, data[:headerLen+len(body)]) {
			t.Fatal("accepted frame did not re-encode to the same bytes")
		}
		dec := proto.NewDecoder(internBudget)
		for pass := 0; pass < 2; pass++ {
			var again proto.RecordBatch
			if err := dec.Decode(&again, body); err != nil {
				t.Fatalf("connection decode %d refused an accepted frame: %v", pass, err)
			}
			if enc, _ := again.MarshalBinary(); !bytes.Equal(enc, body) {
				t.Fatalf("connection decode %d re-encodes to other bytes", pass)
			}
		}
	})
}

// Truncated frames of both kinds fail cleanly with an io error, not a
// hang or panic.
func TestReadFrameTruncation(t *testing.T) {
	for _, full := range [][]byte{
		controlFrame(t, &request{Op: opRegister}),
		uploadFrame(t, sampleUpload()),
	} {
		for cut := 0; cut < len(full); cut++ {
			var f framer
			_, _, err := f.read(bytes.NewReader(full[:cut]))
			if err == nil {
				t.Fatalf("truncated frame (%d/%d bytes) accepted", cut, len(full))
			}
			if cut >= headerLen && err != io.ErrUnexpectedEOF {
				// Body truncation must surface as unexpected EOF.
				t.Fatalf("cut=%d: err = %v", cut, err)
			}
		}
	}
}

// A header may claim MaxFrame; the reader believes readChunk of it until
// more arrives.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	var f framer
	claim := []byte{kindUpload, 0x01, 0x00, 0x00, 0x00} // 16 MiB
	if _, _, err := f.read(bytes.NewReader(append(claim, make([]byte, 100)...))); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want unexpected EOF", err)
	}
	if cap(f.rbuf) > 2*readChunk {
		t.Fatalf("read buffer is %d bytes after a 100-byte body", cap(f.rbuf))
	}
	// A long body is still read whole, in steps.
	big := bytes.Repeat([]byte{7}, 5*readChunk+3)
	if err := f.seal(append(f.stage(kindUpload), big...)); err != nil {
		t.Fatal(err)
	}
	var g framer
	kind, body, err := readBounded(t, &g, f.wbuf)
	if err != nil || kind != kindUpload || !bytes.Equal(body, big) {
		t.Fatalf("long frame: kind %d, %d bytes, %v", kind, len(body), err)
	}
}
