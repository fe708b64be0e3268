package wire

import (
	"testing"

	"rpingmesh/internal/proto"
	"rpingmesh/internal/sim"
)

// TestUploadStreamSurvivesDisconnectAll: the chaos harness's WireSever
// action in miniature. The server stays up but severs every live session
// repeatedly in the middle of an upload stream; the client must redial
// transparently and not one batch may be lost (uploads are synchronous
// round trips, so a sever between calls can only cost a redial, never a
// batch).
func TestUploadStreamSurvivesDisconnectAll(t *testing.T) {
	ctrl, tp := testBackend(t)
	sink := &memSink{}
	srv, cli := startServer(t, ctrl, sink)

	host := tp.AllHosts()[0]
	const total = 100
	for i := 0; i < total; i++ {
		if i%10 == 5 {
			if n := srv.DisconnectAll(); n == 0 {
				t.Fatalf("iteration %d: no live session to sever", i)
			}
		}
		cli.Upload(proto.UploadBatch{Host: host, Sent: sim.Time(i), Seq: uint64(i + 1)})
		if err := cli.Err(); err != nil {
			t.Fatalf("iteration %d: client did not recover: %v", i, err)
		}
	}

	if got := sink.count(); got != total {
		t.Fatalf("sink received %d batches, want %d", got, total)
	}
	// The stream must also arrive in order: one client, synchronous
	// calls, per-host FIFO end to end even across redials.
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, b := range sink.batches {
		if b.Seq != uint64(i+1) {
			t.Fatalf("batch %d has seq %d, want %d", i, b.Seq, i+1)
		}
	}
}

// TestDisconnectAllAccounting: connCount tracks live sessions across
// severs and redials.
func TestDisconnectAllAccounting(t *testing.T) {
	ctrl, tp := testBackend(t)
	srv, cli := startServer(t, ctrl, nil)

	cli.Register(allInfos(tp))
	if err := cli.Err(); err != nil {
		t.Fatal(err)
	}
	if n := srv.connCount(); n != 1 {
		t.Fatalf("connCount = %d after register, want 1", n)
	}
	if n := srv.DisconnectAll(); n != 1 {
		t.Fatalf("DisconnectAll severed %d sessions, want 1", n)
	}
	// The next request redials; the session count recovers.
	cli.Register(allInfos(tp))
	if err := cli.Err(); err != nil {
		t.Fatalf("client did not recover: %v", err)
	}
	if n := srv.connCount(); n != 1 {
		t.Fatalf("connCount = %d after redial, want 1", n)
	}
}
