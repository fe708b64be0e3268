// Package wire carries the Agent ↔ Controller ↔ Analyzer protocol over
// TCP, as in the paper's deployment where the three modules interact over
// the management network (Fig 3).
//
// There is one framing: a 5-byte header — a kind byte and a big-endian
// payload length — followed by the payload. Every request frame is
// answered by exactly one reply frame on the same connection:
//
//	kind        payload                                  reply
//	1 control   JSON request (register, pinglists,       control frame, JSON
//	            lookup)                                  response
//	2 upload    proto.RecordBatch's flat binary layout   ack frame
//	3 ack       one status byte (0 ok, 1 no sink,        — (reply only)
//	            2 undecodable batch)
//
// Control traffic is rare and stays JSON — debuggable and offline-
// friendly. Uploads are the hot op: each side builds and reads frames in
// per-connection buffers it reuses, and writes a frame with one Write.
//
// An upload is a synchronous round trip: Upload returns once the
// server's sink call has returned and the ack has been read. Err, the
// ingest pipeline's Block backpressure and every "all uploads are in"
// barrier rely on that.
//
// The Server decodes each upload with its connection's proto.Decoder
// into a fresh RecordBatch and hands it to the sink's UploadRecords when
// the sink is a proto.RecordSink (the ingest pipeline is, and keeps the
// batch), else to Upload in boxed form. The batch, its route table and
// its columns are the sink's alone; its route strings and paths are
// interned per connection and shared with the connection's other
// batches, which is safe because nothing writes to them (strings are
// immutable, and a path is full, so an append reallocates). The Client
// implements proto.Controller, proto.UploadSink and proto.RecordSink, so
// an Agent can be pointed at a remote Controller/Analyzer without code
// changes.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"rpingmesh/internal/proto"
	"rpingmesh/internal/topo"
)

// MaxFrame bounds a frame's payload size (a full pinglist batch for a
// large host fits well under this).
const MaxFrame = 16 << 20

// Frame kinds.
const (
	kindControl byte = 1
	kindUpload  byte = 2
	kindAck     byte = 3
)

// Upload ack statuses.
const (
	ackOK byte = iota
	ackNoSink
	ackBadBatch
)

const (
	headerLen = 5
	// readChunk is how much of a frame's claimed length is believed before
	// any of it has arrived; past it each read asks for as much again as
	// has arrived, so the read buffer never exceeds twice the bytes
	// received (or readChunk more than them, early on).
	readChunk = 64 << 10
	// internBudget bounds the bytes a connection's decoder keeps interned
	// (route strings and paths, with their map-slot headers) between
	// uploads; past it the tables are cleared and start again.
	internBudget = 256 << 10
)

// Control op codes.
const (
	opRegister  = "register"
	opPinglists = "pinglists"
	opLookup    = "lookup"
)

type request struct {
	Op       string           `json:"op"`
	Register []proto.RNICInfo `json:"register,omitempty"`
	Host     topo.HostID      `json:"host,omitempty"`
	IP       netip.Addr       `json:"ip,omitzero"`
}

type response struct {
	OK        bool             `json:"ok"`
	Error     string           `json:"error,omitempty"`
	Pinglists []proto.Pinglist `json:"pinglists,omitempty"`
	Info      *proto.RNICInfo  `json:"info,omitempty"`
	Found     bool             `json:"found,omitempty"`
}

// framer holds one connection's reusable frame buffers. A frame is
// staged in wbuf (stage, append the payload, seal) and written whole; a
// read frame's payload aliases rbuf until the next read.
type framer struct {
	rbuf, wbuf []byte
}

// stage starts a frame of the given kind over the write buffer and
// returns it for the caller to append the payload to.
func (f *framer) stage(kind byte) []byte {
	return append(f.wbuf[:0], kind, 0, 0, 0, 0)
}

// seal fills in the staged frame's length and keeps it for flush.
func (f *framer) seal(frame []byte) error {
	n := len(frame) - headerLen
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(frame[1:], uint32(n))
	f.wbuf = frame
	return nil
}

// stageJSON stages a control frame carrying v.
func (f *framer) stageJSON(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal: %w", err)
	}
	return append(f.stage(kindControl), body...), nil
}

// flush writes the sealed frame with one Write.
func (f *framer) flush(w io.Writer) error {
	_, err := w.Write(f.wbuf)
	return err
}

// read reads one frame. The header's length is a claim: the buffer
// grows as the payload arrives, never ahead of it.
func (f *framer) read(r io.Reader) (kind byte, body []byte, err error) {
	if cap(f.rbuf) < headerLen {
		f.rbuf = make([]byte, headerLen)
	}
	hdr := f.rbuf[:headerLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	kind = hdr[0]
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	body = hdr[:0]
	for len(body) < n {
		step := min(n-len(body), max(len(body), readChunk))
		if cap(body) < len(body)+step {
			body = append(make([]byte, 0, len(body)+step), body...)
		}
		got, err := io.ReadFull(r, body[len(body):len(body)+step])
		body = body[:len(body)+got]
		f.rbuf = body
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
	}
	return kind, body, nil
}

// Server exposes a Controller and an UploadSink over TCP. Either may be
// nil, in which case the corresponding ops fail. Each connection is
// served by its own goroutine, so both are called concurrently and must
// be safe for concurrent use. No server lock is held across either call:
// an upload stalled in its sink (a full Block pipeline) holds up only its
// own connection.
type Server struct {
	ln      net.Listener
	ctrl    proto.Controller
	sink    proto.UploadSink
	recSink proto.RecordSink // sink's flat-path surface, if it has one

	connWG sync.WaitGroup
	closed chan struct{}

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// Serve starts accepting on ln. It returns immediately; the accept loop
// runs until Close.
func Serve(ln net.Listener, ctrl proto.Controller, sink proto.UploadSink) *Server {
	s := &Server{
		ln: ln, ctrl: ctrl, sink: sink,
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	s.recSink, _ = sink.(proto.RecordSink)
	s.connWG.Add(1)
	go s.acceptLoop()
	return s
}

// Listen is a convenience: listen on addr ("127.0.0.1:0" for tests) and
// serve.
func Listen(addr string, ctrl proto.Controller, sink proto.UploadSink) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(ln, ctrl, sink), nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, closes live connections, and waits for the
// connection handlers to drain.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	err := s.ln.Close()
	s.connMu.Lock()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.connMu.Unlock()
	s.connWG.Wait()
	return err
}

// DisconnectAll severs every live connection without stopping the
// listener — the chaos harness's wire fault. Clients are expected to
// survive it: Client redials once per request, so the next round trip
// re-establishes the session (§4.1's Controller-restart story).
func (s *Server) DisconnectAll() int {
	s.connMu.Lock()
	n := len(s.conns)
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.connMu.Unlock()
	return n
}

func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.connMu.Lock()
		select {
		case <-s.closed:
			// Accepted as Close swept the live connections: it will not
			// be swept again, so it must not start a handler.
			s.connMu.Unlock()
			conn.Close()
			return
		default:
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
				conn.Close()
			}()
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	var f framer
	dec := proto.NewDecoder(internBudget)
	for {
		kind, body, err := f.read(conn)
		if err != nil {
			return // EOF or garbage: drop the connection
		}
		var reply []byte
		switch kind {
		case kindControl:
			var req request
			if err := json.Unmarshal(body, &req); err != nil {
				return
			}
			if reply, err = f.stageJSON(s.dispatch(&req)); err != nil {
				return
			}
		case kindUpload:
			reply = append(f.stage(kindAck), s.upload(dec, body))
		default:
			return
		}
		if f.seal(reply) != nil || f.flush(conn) != nil {
			return
		}
	}
}

// upload decodes one record frame with the connection's decoder and
// hands the batch to the sink. body is the connection's read buffer; the
// decoded batch does not alias it.
func (s *Server) upload(dec *proto.Decoder, body []byte) (status byte) {
	if s.sink == nil {
		return ackNoSink
	}
	rb := new(proto.RecordBatch)
	if err := dec.Decode(rb, body); err != nil {
		return ackBadBatch
	}
	if s.recSink != nil {
		s.recSink.UploadRecords(rb)
	} else {
		s.sink.Upload(rb.ToUploadBatch())
	}
	return ackOK
}

func (s *Server) dispatch(req *request) response {
	switch req.Op {
	case opRegister:
		if s.ctrl == nil {
			return response{Error: "no controller"}
		}
		s.ctrl.Register(req.Register)
		return response{OK: true}
	case opPinglists:
		if s.ctrl == nil {
			return response{Error: "no controller"}
		}
		return response{OK: true, Pinglists: s.ctrl.Pinglists(req.Host)}
	case opLookup:
		if s.ctrl == nil {
			return response{Error: "no controller"}
		}
		info, found := s.ctrl.Lookup(req.IP)
		return response{OK: true, Info: &info, Found: found}
	default:
		return response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// Reconnect backoff bounds: the first failed redial waits BackoffBase,
// each further failure doubles it up to BackoffMax, and a deterministic
// jitter keeps a fleet of agents severed by one controller restart from
// redialling in lockstep.
const (
	BackoffBase = 50 * time.Millisecond
	BackoffMax  = 5 * time.Second
)

// Client speaks the wire protocol and implements proto.Controller,
// proto.UploadSink and proto.RecordSink. It is safe for concurrent use;
// requests are serialized on one connection. A broken connection is
// redialled once
// per request (Controllers restart; Agents keep running — §4.1's
// re-registration story depends on it); while the server stays
// unreachable, redial attempts back off exponentially and requests
// inside the backoff window fail fast instead of hot-spinning dials.
type Client struct {
	addr string

	mu     sync.Mutex
	conn   net.Conn
	closed bool
	err    error
	f      framer             // the connection's frame buffers
	enc    proto.BatchEncoder // Upload's scratch

	// Dial-failure backoff state. Only failed dials back off: a round
	// trip that redials successfully (the server restarted) pays nothing.
	dialFails  int
	nextDialAt time.Time

	// Injectable for tests; defaulted by Dial.
	now    func() time.Time
	dialFn func(addr string) (net.Conn, error)
}

// Dial connects to a Server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{
		addr: addr, conn: conn,
		now:    time.Now,
		dialFn: func(a string) (net.Conn, error) { return net.Dial("tcp", a) },
	}, nil
}

// backoffDelay is the wait after the n-th consecutive dial failure
// (n >= 1): capped exponential with deterministic jitter in
// [delay/2, delay], derived from the address and the failure count so
// retry schedules are reproducible but distinct across clients.
func backoffDelay(addr string, n int) time.Duration {
	d := BackoffBase
	for i := 1; i < n && d < BackoffMax; i++ {
		d *= 2
	}
	if d > BackoffMax {
		d = BackoffMax
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(addr))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(n))
	_, _ = h.Write(b[:])
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + int64(h.Sum64()%uint64(half+1)))
}

// redial re-establishes the connection, honoring the backoff window.
// Callers hold mu.
func (c *Client) redial() error {
	if c.dialFails > 0 && c.now().Before(c.nextDialAt) {
		if c.err == nil {
			c.err = fmt.Errorf("wire: dial %s backing off", c.addr)
		}
		return c.err
	}
	conn, err := c.dialFn(c.addr)
	if err != nil {
		c.dialFails++
		c.nextDialAt = c.now().Add(backoffDelay(c.addr, c.dialFails))
		c.err = err
		return err
	}
	c.conn = conn
	c.dialFails = 0
	c.nextDialAt = time.Time{}
	return nil
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.err = errors.New("wire: client closed")
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Err returns the outcome of the most recent request: a transport
// failure that a redial did not cure, a refusal by the server (an upload
// to a server without a sink, an undecodable batch, a control op it has
// no backend for), or nil. It is how the interface methods that return
// nothing (Register, Upload, UploadRecords) report.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// exchange seals the staged frame, sends it and returns the reply's
// payload (valid until the next exchange), which must be of kind want.
// A transport failure costs one redial (subject to backoff) and one
// resend of the same frame. Either way the outcome lands in c.err.
// Callers hold mu.
func (c *Client) exchange(frame []byte, want byte) ([]byte, error) {
	if c.closed {
		return nil, c.err
	}
	if err := c.f.seal(frame); err != nil {
		c.err = err
		return nil, err
	}
	body, err := c.attempt(want)
	if err != nil {
		c.drop()
		if derr := c.redial(); derr != nil {
			return nil, derr
		}
		if body, err = c.attempt(want); err != nil {
			c.drop()
		}
	}
	c.err = err
	return body, err
}

// attempt runs one request on the current connection; callers hold mu.
func (c *Client) attempt(want byte) ([]byte, error) {
	if c.conn == nil {
		return nil, errors.New("wire: no connection")
	}
	if err := c.f.flush(c.conn); err != nil {
		return nil, err
	}
	kind, body, err := c.f.read(c.conn)
	if err != nil {
		return nil, err
	}
	if kind != want {
		return nil, fmt.Errorf("wire: reply frame of kind %d, want %d", kind, want)
	}
	return body, nil
}

// drop closes a connection that failed or lost frame sync; the next
// attempt redials. Callers hold mu.
func (c *Client) drop() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
}

// roundTrip runs one control request. A refusal by the server is an
// error too, and leaves the connection usable.
func (c *Client) roundTrip(req *request) (response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	frame, err := c.f.stageJSON(req)
	if err != nil {
		c.err = err
		return response{}, err
	}
	body, err := c.exchange(frame, kindControl)
	if err != nil {
		return response{}, err
	}
	var resp response
	if err := json.Unmarshal(body, &resp); err != nil {
		c.drop()
		c.err = err
		return response{}, err
	}
	if !resp.OK {
		c.err = errors.New("wire: " + resp.Error)
		return resp, c.err
	}
	return resp, nil
}

// Register implements proto.Controller.
func (c *Client) Register(infos []proto.RNICInfo) {
	_, _ = c.roundTrip(&request{Op: opRegister, Register: infos}) // reported by Err
}

// Pinglists implements proto.Controller.
func (c *Client) Pinglists(host topo.HostID) []proto.Pinglist {
	resp, err := c.roundTrip(&request{Op: opPinglists, Host: host})
	if err != nil {
		return nil
	}
	return resp.Pinglists
}

// Lookup implements proto.Controller.
func (c *Client) Lookup(ip netip.Addr) (proto.RNICInfo, bool) {
	resp, err := c.roundTrip(&request{Op: opLookup, IP: ip})
	if err != nil || !resp.Found || resp.Info == nil {
		return proto.RNICInfo{}, false
	}
	return *resp.Info, true
}

// Upload implements proto.UploadSink: the boxed batch is encoded
// straight into a record frame. It returns after the server's sink has
// taken the batch; Err reports a failure or refusal.
func (c *Client) Upload(batch proto.UploadBatch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.upload(c.enc.AppendBinary(c.f.stage(kindUpload), &batch))
}

// UploadRecords implements proto.RecordSink: Upload for a batch that is
// already flat. b is only read, and not kept.
func (c *Client) UploadRecords(b *proto.RecordBatch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	frame, _ := b.AppendBinary(c.f.stage(kindUpload)) // never fails
	c.upload(frame)
}

// upload ships a staged record frame and folds the ack into c.err.
// Callers hold mu.
func (c *Client) upload(frame []byte) {
	ack, err := c.exchange(frame, kindAck)
	if err != nil {
		return
	}
	switch {
	case len(ack) != 1:
		c.drop()
		c.err = fmt.Errorf("wire: upload ack of %d bytes", len(ack))
	case ack[0] == ackNoSink:
		c.err = errors.New("wire: upload refused: no sink")
	case ack[0] != ackOK:
		c.err = errors.New("wire: upload refused: undecodable batch")
	}
}

var (
	_ proto.Controller = (*Client)(nil)
	_ proto.UploadSink = (*Client)(nil)
	_ proto.RecordSink = (*Client)(nil)
)
