package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"rpingmesh/internal/proto"
	"rpingmesh/internal/topo"
)

// TestWarmUploadAllocs pins what a connection pays per upload once its
// decoder has seen the agent's routes: the batch, its route table, the
// routeIdx, seq and flags columns and one arena for the five time
// columns. Strings and paths come from the intern tables.
func TestWarmUploadAllocs(t *testing.T) {
	s := &Server{sink: nopSink{}, recSink: nopSink{}}
	body, _ := agentBatch().MarshalBinary()
	dec := proto.NewDecoder(internBudget)
	if s.upload(dec, body) != ackOK {
		t.Fatal("upload refused")
	}
	if allocs := testing.AllocsPerRun(100, func() { s.upload(dec, body) }); allocs > 6 {
		t.Fatalf("a warm upload costs %v allocations, want ≤ 6", allocs)
	}
}

// TestConnectionInternBudget streams frames of unique 4 KiB strings and
// long paths through one connection's decoder: what it keeps interned
// never exceeds internBudget, the tables are cleared along the way, and
// every batch — the ones right after a clear included — decodes as a
// one-shot decode does.
func TestConnectionInternBudget(t *testing.T) {
	dec := proto.NewDecoder(internBudget)
	resets := 0
	for i := 0; i < 64; i++ {
		rb := &proto.RecordBatch{Host: topo.HostID(fmt.Sprintf("host-%d", i%3)), Seq: uint64(i)}
		for r := 0; r < 4; r++ {
			long := make([]topo.LinkID, 1000+i)
			for j := range long {
				long[j] = topo.LinkID(i<<20 | r<<16 | j)
			}
			rb.AddRoute(proto.Route{
				Kind:   proto.ToRMesh,
				SrcDev: topo.DeviceID(fmt.Sprintf("%04096d", i*4+r)), DstDev: "rnic-0",
				ProbePath: long, AckPath: long[:10+r],
			})
			rb.Append(int32(r), uint64(r), 1, 0, 2, 3, 4, 5)
		}
		data, _ := rb.MarshalBinary()
		before := dec.Interned()
		var got, want proto.RecordBatch
		if err := dec.Decode(&got, data); err != nil {
			t.Fatal(err)
		}
		if dec.Interned() < before {
			resets++
		}
		if dec.Interned() > internBudget {
			t.Fatalf("frame %d: %d bytes interned, budget %d", i, dec.Interned(), internBudget)
		}
		if err := want.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if enc, _ := got.MarshalBinary(); !bytes.Equal(enc, data) {
			t.Fatalf("frame %d re-encodes to other bytes", i)
		}
		for k := 0; k < got.Len(); k++ {
			if !reflect.DeepEqual(got.ResultAt(k), want.ResultAt(k)) {
				t.Fatalf("frame %d, record %d differs from a one-shot decode", i, k)
			}
		}
	}
	if resets < 2 {
		t.Fatalf("the tables were cleared %d times, want several", resets)
	}
}
