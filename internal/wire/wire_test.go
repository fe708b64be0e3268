package wire

import (
	"bytes"
	"encoding/json"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"rpingmesh/internal/controller"
	"rpingmesh/internal/proto"
	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// memSink collects uploads.
type memSink struct {
	mu      sync.Mutex
	batches []proto.UploadBatch
}

func (m *memSink) Upload(b proto.UploadBatch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batches = append(m.batches, b)
}

func (m *memSink) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.batches)
}

func testBackend(t *testing.T) (*controller.Controller, *topo.Topology) {
	t.Helper()
	tp, err := topo.BuildClos(topo.ClosConfig{Pods: 1, ToRsPerPod: 2, AggsPerPod: 1, Spines: 1, HostsPerToR: 2, RNICsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	return controller.New(sim.New(1), tp, controller.Config{}), tp
}

func startServer(t *testing.T, ctrl proto.Controller, sink proto.UploadSink) (*Server, *Client) {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", ctrl, sink)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

func allInfos(tp *topo.Topology) []proto.RNICInfo {
	var infos []proto.RNICInfo
	for i, id := range tp.AllRNICs() {
		r := tp.RNICs[id]
		infos = append(infos, proto.RNICInfo{Dev: id, Host: r.Host, ToR: r.ToR, IP: r.IP, GID: r.GID, QPN: rnic.QPN(100 + i)})
	}
	return infos
}

func TestRegisterLookupOverTCP(t *testing.T) {
	ctrl, tp := testBackend(t)
	_, cli := startServer(t, ctrl, nil)

	infos := allInfos(tp)
	cli.Register(infos)
	if err := cli.Err(); err != nil {
		t.Fatal(err)
	}
	if ctrl.Registered() != len(infos) {
		t.Fatalf("registered = %d, want %d", ctrl.Registered(), len(infos))
	}
	got, ok := cli.Lookup(infos[0].IP)
	if !ok {
		t.Fatal("Lookup failed over TCP")
	}
	if got.Dev != infos[0].Dev || got.QPN != infos[0].QPN || got.GID != infos[0].GID {
		t.Fatalf("Lookup = %+v, want %+v", got, infos[0])
	}
	if _, ok := cli.Lookup(netip.AddrFrom4([4]byte{1, 2, 3, 4})); ok {
		t.Fatal("Lookup of unknown IP succeeded")
	}
}

func TestPinglistsOverTCP(t *testing.T) {
	ctrl, tp := testBackend(t)
	_, cli := startServer(t, ctrl, nil)
	cli.Register(allInfos(tp))

	host := tp.AllHosts()[0]
	direct := ctrl.Pinglists(host)
	remote := cli.Pinglists(host)
	if len(remote) != len(direct) {
		t.Fatalf("pinglists over TCP = %d, direct = %d", len(remote), len(direct))
	}
	for i := range direct {
		if remote[i].Kind != direct[i].Kind || remote[i].Src != direct[i].Src ||
			remote[i].Interval != direct[i].Interval || len(remote[i].Targets) != len(direct[i].Targets) {
			t.Fatalf("pinglist %d mismatch:\n tcp: %+v\n mem: %+v", i, remote[i], direct[i])
		}
		for j := range direct[i].Targets {
			if remote[i].Targets[j] != direct[i].Targets[j] {
				t.Fatalf("target %d/%d mismatch", i, j)
			}
		}
	}
}

// TestUnknownOpKeepsConnection: an op the server does not serve is
// refused with an application error, not a transport failure, and the
// same client's next request still succeeds.
func TestUnknownOpKeepsConnection(t *testing.T) {
	ctrl, tp := testBackend(t)
	_, cli := startServer(t, ctrl, nil)
	cli.Register(allInfos(tp))
	conn := func() net.Conn {
		cli.mu.Lock()
		defer cli.mu.Unlock()
		return cli.conn
	}
	before := conn()

	_, err := cli.roundTrip(&request{Op: "fed.hello"})
	if err == nil || !strings.Contains(err.Error(), `unknown op "fed.hello"`) {
		t.Fatalf("unknown op: err = %v, want an unknown-op refusal", err)
	}
	if got := cli.Pinglists(tp.AllHosts()[0]); len(got) == 0 {
		t.Fatalf("pinglists after the refusal: %v (err %v)", got, cli.Err())
	}
	if conn() != before {
		t.Fatal("the refusal cost the client its connection")
	}
}

func TestUploadOverTCP(t *testing.T) {
	ctrl, tp := testBackend(t)
	sink := &memSink{}
	_, cli := startServer(t, ctrl, sink)

	r := tp.RNICs[tp.AllRNICs()[0]]
	batch := proto.UploadBatch{
		Host: r.Host,
		Sent: 12345,
		Results: []proto.ProbeResult{{
			Seq: 1, Kind: proto.ToRMesh,
			SrcDev: r.ID, DstDev: "other",
			SrcIP: r.IP, DstIP: netip.AddrFrom4([4]byte{10, 0, 0, 9}),
			NetworkRTT: 10 * sim.Microsecond,
			ProbePath:  []topo.LinkID{1, 2, 3},
		}},
	}
	cli.Upload(batch)
	if err := cli.Err(); err != nil {
		t.Fatal(err)
	}
	if sink.count() != 1 {
		t.Fatalf("sink got %d batches", sink.count())
	}
	got := sink.batches[0]
	if got.Host != batch.Host || got.Sent != batch.Sent || len(got.Results) != 1 {
		t.Fatalf("batch = %+v", got)
	}
	if got.Results[0].NetworkRTT != 10*sim.Microsecond || len(got.Results[0].ProbePath) != 3 {
		t.Fatalf("result = %+v", got.Results[0])
	}
}

func TestConcurrentClients(t *testing.T) {
	ctrl, tp := testBackend(t)
	sink := &memSink{}
	srv, _ := startServer(t, ctrl, sink)

	const clients = 8
	const uploads = 20
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			cli.Register(allInfos(tp))
			for j := 0; j < uploads; j++ {
				cli.Upload(proto.UploadBatch{Host: "h", Sent: sim.Time(j)})
				cli.Pinglists(tp.AllHosts()[0])
			}
			if err := cli.Err(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if sink.count() != clients*uploads {
		t.Fatalf("sink got %d batches, want %d", sink.count(), clients*uploads)
	}
}

func TestServerWithoutBackends(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if got := cli.Pinglists("h"); got != nil {
		t.Fatal("pinglists without controller should fail")
	}
	if _, ok := cli.Lookup(netip.AddrFrom4([4]byte{1, 2, 3, 4})); ok {
		t.Fatal("lookup without controller should fail")
	}
	// The server answered, so the transport is fine, but the refusal is
	// what Err reports until a request succeeds.
	if err := cli.Err(); err == nil || !strings.Contains(err.Error(), "no controller") {
		t.Fatalf("Err after a refused op = %v", err)
	}
}

// TestRefusedUploadSetsErr: an upload the server did not take must not
// read as success. A sink-less server and an undecodable batch are both
// answered with a nack that lands in Err; the framing stayed intact, so
// neither costs the connection, and the next good request clears Err.
func TestRefusedUploadSetsErr(t *testing.T) {
	ctrl, tp := testBackend(t)
	srv, cli := startServer(t, ctrl, nil)
	cli.Upload(sampleUpload())
	if err := cli.Err(); err == nil || !strings.Contains(err.Error(), "no sink") {
		t.Fatalf("upload to a sink-less server: Err = %v", err)
	}
	cli.UploadRecords(proto.RecordsFromBatch(sampleUpload()))
	if err := cli.Err(); err == nil || !strings.Contains(err.Error(), "no sink") {
		t.Fatalf("record upload to a sink-less server: Err = %v", err)
	}
	cli.Register(allInfos(tp))
	if err := cli.Err(); err != nil {
		t.Fatalf("Err after a good request: %v", err)
	}

	sink := &memSink{}
	srv2, cli2 := startServer(t, ctrl, sink)
	good := uploadFrame(t, sampleUpload())
	for _, bad := range [][]byte{
		good[:len(good)-1],           // truncated columns
		append(bytes.Clone(good), 0), // trailing byte
		{kindUpload, 0, 0, 0, 0},     // empty payload
		func() []byte { b := bytes.Clone(good); b[headerLen] = 99; return b }(), // unknown version
	} {
		cli2.mu.Lock()
		cli2.upload(append(cli2.f.stage(kindUpload), bad[headerLen:]...))
		cli2.mu.Unlock()
		if err := cli2.Err(); err == nil || !strings.Contains(err.Error(), "undecodable") {
			t.Fatalf("corrupted frame: Err = %v", err)
		}
	}
	if n := sink.count(); n != 0 {
		t.Fatalf("sink got %d batches from corrupted frames", n)
	}
	cli2.Upload(sampleUpload())
	if err := cli2.Err(); err != nil || sink.count() != 1 {
		t.Fatalf("good upload after nacks: Err = %v, sink has %d", err, sink.count())
	}
	if srv.connCount() != 1 || srv2.connCount() != 1 {
		t.Fatalf("a nack cost a connection: %d, %d live", srv.connCount(), srv2.connCount())
	}
}

func TestGarbageFrameDropsConnection(t *testing.T) {
	ctrl, _ := testBackend(t)
	srv, _ := startServer(t, ctrl, nil)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A frame header advertising more than MaxFrame must be rejected.
	if _, err := conn.Write([]byte{kindControl, 0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server responded to oversized frame")
	}
}

// A frame of a kind the server does not take (an ack, an unknown byte)
// drops the connection too.
func TestUnknownFrameKindDropsConnection(t *testing.T) {
	ctrl, _ := testBackend(t)
	srv, _ := startServer(t, ctrl, &memSink{})
	for _, kind := range []byte{0, kindAck, 0x7B} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte{kind, 0, 0, 0, 1, 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatalf("server answered a frame of kind %d", kind)
		}
		conn.Close()
	}
}

func TestFrameRoundtrip(t *testing.T) {
	in := request{Op: opPinglists, Host: "host-1"}
	var f framer
	kind, body, err := f.read(bytes.NewReader(controlFrame(t, &in)))
	if err != nil || kind != kindControl {
		t.Fatalf("read: kind %d, %v", kind, err)
	}
	var out request
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Op != in.Op || out.Host != in.Host {
		t.Fatalf("roundtrip = %+v", out)
	}
}

func TestServerDoubleClose(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("double close errored")
	}
}

// Close returns even when a connection is accepted while it runs: a
// client that dialled just before Close and then sits idle must not
// leave a handler behind for Close to wait on.
func TestCloseRacesAccept(t *testing.T) {
	for i := 0; i < 200; i++ {
		srv, err := Listen("127.0.0.1:0", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		cli, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() {
			srv.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: Close waits on a handler nobody will wake", i)
		}
		cli.Close()
	}
}

// A Controller restart must be invisible to Agents: the client redials
// and the next request (re-registration) succeeds.
func TestClientReconnectsAfterServerRestart(t *testing.T) {
	ctrl, tp := testBackend(t)
	srv, err := Listen("127.0.0.1:0", ctrl, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Register(allInfos(tp))
	if err := cli.Err(); err != nil {
		t.Fatal(err)
	}

	// Restart the controller endpoint on the same address.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := Listen(addr, ctrl, nil)
	if err != nil {
		t.Skipf("cannot rebind %s immediately: %v", addr, err)
	}
	defer srv2.Close()

	// The first call may hit the dead connection; the client redials.
	cli.Register(allInfos(tp))
	if err := cli.Err(); err != nil {
		t.Fatalf("client did not recover: %v", err)
	}
	if got := cli.Pinglists(tp.AllHosts()[0]); len(got) == 0 {
		t.Fatal("no pinglists after reconnect")
	}
}

// A closed client stays closed: no zombie reconnects.
func TestClosedClientStaysClosed(t *testing.T) {
	ctrl, tp := testBackend(t)
	_, cli := startServer(t, ctrl, nil)
	cli.Register(allInfos(tp))
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal("double close errored")
	}
	if got := cli.Pinglists(tp.AllHosts()[0]); got != nil {
		t.Fatal("closed client served a request")
	}
	if cli.Err() == nil {
		t.Fatal("closed client reports no error")
	}
}

// stallSink blocks every upload until release is closed, the way a Block
// pipeline with a full partition holds its producer.
type stallSink struct {
	entered chan struct{} // receives once per upload that reached the sink
	release chan struct{}
}

func (s stallSink) Upload(proto.UploadBatch) {
	s.entered <- struct{}{}
	<-s.release
}

// TestControlOpsDuringStalledUpload: an upload stalled in its sink holds
// up its own connection only. Another agent's pinglist request still
// answers.
func TestControlOpsDuringStalledUpload(t *testing.T) {
	ctrl, tp := testBackend(t)
	sink := stallSink{entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv, uploader := startServer(t, ctrl, sink)
	released := false
	release := func() {
		if !released {
			released = true
			close(sink.release)
		}
	}
	defer release() // before the Cleanups close the server

	infos := allInfos(tp)
	uploader.Register(infos)
	if err := uploader.Err(); err != nil {
		t.Fatal(err)
	}
	stalled := make(chan error, 1)
	go func() {
		uploader.Upload(proto.UploadBatch{Host: infos[0].Host, Seq: 1})
		stalled <- uploader.Err()
	}()
	<-sink.entered

	agent, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	answered := make(chan int, 1)
	go func() { answered <- len(agent.Pinglists(infos[1].Host)) }()
	select {
	case n := <-answered:
		if err := agent.Err(); err != nil || n == 0 {
			t.Fatalf("pinglists during a stalled upload: %d lists, err %v", n, err)
		}
	case <-time.After(time.Second):
		release() // unblocks the request, so agent.Close can return
		t.Fatal("pinglists request still unanswered 1 s into another connection's stalled upload")
	}
	release()
	if err := <-stalled; err != nil {
		t.Fatalf("stalled upload: %v", err)
	}
}
