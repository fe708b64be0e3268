// Flat, zero-allocation probe-record representation for the ingest
// spine. A RecordBatch carries the same information as an UploadBatch
// but in columnar (struct-of-arrays) form: one interned Route table for
// the slowly-varying addressing fields and parallel typed columns for
// the per-probe measurements. Agents build batches in place, the
// pipeline enqueues and merges them without per-record boxing, analyzer
// stages consume them by index, and the tsdb sketch tier ingests the
// columns directly.
package proto

import (
	"encoding/binary"
	"errors"
	"hash/maphash"
	"net/netip"
	"slices"

	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

// Route holds the addressing fields of a probe record — everything in a
// ProbeResult that is fixed per (pinglist entry, path epoch) rather than
// per probe. Batches intern routes so thousands of records from one
// prober share a handful of Route entries.
type Route struct {
	Kind      ProbeKind
	SrcDev    topo.DeviceID
	SrcHost   topo.HostID
	DstDev    topo.DeviceID
	DstHost   topo.HostID
	SrcIP     netip.Addr
	DstIP     netip.Addr
	SrcPort   uint16
	DstQPN    rnic.QPN
	ProbePath []topo.LinkID
	AckPath   []topo.LinkID
}

// Per-record flag bits (the verdict column).
const (
	RecTimeout uint8 = 1 << 0
	RecOneWay  uint8 = 1 << 1
)

// Records is the columnar store: parallel arrays indexed by record
// number, plus the interned route table the routeIdx column points
// into. The zero value is ready to use.
type Records struct {
	routes []Route

	routeIdx []int32
	seq      []uint64
	sentAt   []sim.Time
	flags    []uint8
	rtt      []sim.Time // NetworkRTT
	probd    []sim.Time // ProberDelay
	respd    []sim.Time // ResponderDelay
	oneway   []sim.Time // OneWayDelay
}

// Len reports the number of records.
func (r *Records) Len() int { return len(r.routeIdx) }

// Routes reports the number of interned routes.
func (r *Records) Routes() int { return len(r.routes) }

// Reset empties the store, keeping all column capacity for reuse.
func (r *Records) Reset() {
	r.routes = r.routes[:0]
	r.routeIdx = r.routeIdx[:0]
	r.seq = r.seq[:0]
	r.sentAt = r.sentAt[:0]
	r.flags = r.flags[:0]
	r.rtt = r.rtt[:0]
	r.probd = r.probd[:0]
	r.respd = r.respd[:0]
	r.oneway = r.oneway[:0]
}

// Grow makes room for n more records in every column and for routes
// more interned routes, so the next n Appends and routes AddRoutes
// allocate nothing.
func (r *Records) Grow(n, routes int) {
	r.routes = slices.Grow(r.routes, routes)
	r.routeIdx = slices.Grow(r.routeIdx, n)
	r.seq = slices.Grow(r.seq, n)
	r.sentAt = slices.Grow(r.sentAt, n)
	r.flags = slices.Grow(r.flags, n)
	r.rtt = slices.Grow(r.rtt, n)
	r.probd = slices.Grow(r.probd, n)
	r.respd = slices.Grow(r.respd, n)
	r.oneway = slices.Grow(r.oneway, n)
}

// AddRoute interns a route and returns its index. Callers are expected
// to deduplicate themselves (the agent keys routes by pinglist entry);
// AddRoute never scans.
func (r *Records) AddRoute(rt Route) int32 {
	r.routes = append(r.routes, rt)
	return int32(len(r.routes) - 1)
}

// RouteAt returns the interned route for record i. The pointer aliases
// the batch's table: valid until the next Reset.
func (r *Records) RouteAt(i int) *Route { return &r.routes[r.routeIdx[i]] }

// RouteIndex returns record i's index into the route table.
func (r *Records) RouteIndex(i int) int32 { return r.routeIdx[i] }

// Route returns route table entry ri.
func (r *Records) Route(ri int32) *Route { return &r.routes[ri] }

// Timeout reports whether record i timed out.
func (r *Records) Timeout(i int) bool { return r.flags[i]&RecTimeout != 0 }

// OneWay reports whether record i is a rail-optimized one-way probe.
func (r *Records) OneWay(i int) bool { return r.flags[i]&RecOneWay != 0 }

// Seq returns record i's probe sequence number.
func (r *Records) Seq(i int) uint64 { return r.seq[i] }

// SentAt returns record i's prober-clock send timestamp.
func (r *Records) SentAt(i int) sim.Time { return r.sentAt[i] }

// NetworkRTT returns record i's network round-trip time.
func (r *Records) NetworkRTT(i int) sim.Time { return r.rtt[i] }

// ProberDelay returns record i's prober-side processing delay.
func (r *Records) ProberDelay(i int) sim.Time { return r.probd[i] }

// ResponderDelay returns record i's responder-side processing delay.
func (r *Records) ResponderDelay(i int) sim.Time { return r.respd[i] }

// OneWayDelay returns record i's one-way latency (one-way probes only).
func (r *Records) OneWayDelay(i int) sim.Time { return r.oneway[i] }

// Append adds one record referencing route table entry route.
func (r *Records) Append(route int32, seq uint64, sentAt sim.Time, flags uint8, rtt, probd, respd, oneway sim.Time) {
	r.routeIdx = append(r.routeIdx, route)
	r.seq = append(r.seq, seq)
	r.sentAt = append(r.sentAt, sentAt)
	r.flags = append(r.flags, flags)
	r.rtt = append(r.rtt, rtt)
	r.probd = append(r.probd, probd)
	r.respd = append(r.respd, respd)
	r.oneway = append(r.oneway, oneway)
}

// routeOf extracts a result's addressing fields (paths aliased).
func routeOf(p *ProbeResult) Route {
	return Route{
		Kind:      p.Kind,
		SrcDev:    p.SrcDev,
		SrcHost:   p.SrcHost,
		DstDev:    p.DstDev,
		DstHost:   p.DstHost,
		SrcIP:     p.SrcIP,
		DstIP:     p.DstIP,
		SrcPort:   p.SrcPort,
		DstQPN:    p.DstQPN,
		ProbePath: p.ProbePath,
		AckPath:   p.AckPath,
	}
}

// resultFlags folds a result's verdict booleans into the flag byte.
func resultFlags(p *ProbeResult) uint8 {
	var fl uint8
	if p.Timeout {
		fl |= RecTimeout
	}
	if p.OneWay {
		fl |= RecOneWay
	}
	return fl
}

// AppendResult adds one classic ProbeResult, interning a fresh route for
// it. This is the compatibility path; hot producers intern routes once
// via AddRoute and call Append.
func (r *Records) AppendResult(p ProbeResult) {
	ri := r.AddRoute(routeOf(&p))
	r.Append(ri, p.Seq, p.SentAt, resultFlags(&p), p.NetworkRTT, p.ProberDelay, p.ResponderDelay, p.OneWayDelay)
}

// DropFirst sheds the n oldest records in place (the agent's buffer-cap
// eviction). Interned routes are kept — indexes of surviving records
// stay valid.
func (r *Records) DropFirst(n int) {
	if n <= 0 {
		return
	}
	if n > r.Len() {
		n = r.Len()
	}
	r.routeIdx = r.routeIdx[:copy(r.routeIdx, r.routeIdx[n:])]
	r.seq = r.seq[:copy(r.seq, r.seq[n:])]
	r.sentAt = r.sentAt[:copy(r.sentAt, r.sentAt[n:])]
	r.flags = r.flags[:copy(r.flags, r.flags[n:])]
	r.rtt = r.rtt[:copy(r.rtt, r.rtt[n:])]
	r.probd = r.probd[:copy(r.probd, r.probd[n:])]
	r.respd = r.respd[:copy(r.respd, r.respd[n:])]
	r.oneway = r.oneway[:copy(r.oneway, r.oneway[n:])]
}

// AppendFrom bulk-appends every record of o, rebasing o's route indexes
// onto r's table. Column copies only — no per-record boxing.
func (r *Records) AppendFrom(o *Records) {
	if o.Len() == 0 && len(o.routes) == 0 {
		return
	}
	base := int32(len(r.routes))
	r.routes = append(r.routes, o.routes...)
	n := len(r.routeIdx)
	r.routeIdx = append(r.routeIdx, o.routeIdx...)
	for i := n; i < len(r.routeIdx); i++ {
		r.routeIdx[i] += base
	}
	r.seq = append(r.seq, o.seq...)
	r.sentAt = append(r.sentAt, o.sentAt...)
	r.flags = append(r.flags, o.flags...)
	r.rtt = append(r.rtt, o.rtt...)
	r.probd = append(r.probd, o.probd...)
	r.respd = append(r.respd, o.respd...)
	r.oneway = append(r.oneway, o.oneway...)
}

// ResultAt materializes record i as a classic ProbeResult, value-
// faithful to what AppendResult consumed (path slices alias the route
// table).
func (r *Records) ResultAt(i int) ProbeResult {
	rt := &r.routes[r.routeIdx[i]]
	return ProbeResult{
		Seq:            r.seq[i],
		Kind:           rt.Kind,
		SrcDev:         rt.SrcDev,
		SrcHost:        rt.SrcHost,
		DstDev:         rt.DstDev,
		DstHost:        rt.DstHost,
		SrcIP:          rt.SrcIP,
		DstIP:          rt.DstIP,
		SrcPort:        rt.SrcPort,
		DstQPN:         rt.DstQPN,
		SentAt:         r.sentAt[i],
		Timeout:        r.flags[i]&RecTimeout != 0,
		NetworkRTT:     r.rtt[i],
		ProberDelay:    r.probd[i],
		ResponderDelay: r.respd[i],
		OneWay:         r.flags[i]&RecOneWay != 0,
		OneWayDelay:    r.oneway[i],
		ProbePath:      rt.ProbePath,
		AckPath:        rt.AckPath,
	}
}

// AppendResults materializes every record onto dst and returns it.
func (r *Records) AppendResults(dst []ProbeResult) []ProbeResult {
	for i := 0; i < r.Len(); i++ {
		dst = append(dst, r.ResultAt(i))
	}
	return dst
}

// RecordBatch is the flat equivalent of UploadBatch: the agent's
// periodic upload in columnar form. Host/Sent/Seq have UploadBatch
// semantics.
type RecordBatch struct {
	Host topo.HostID
	Sent sim.Time
	Seq  uint64
	Records
}

// ToUploadBatch materializes the batch as a classic UploadBatch for the
// remaining boxed consumers: the pipeline's and the wire server's
// UploadSink arms, callers of wire.Client.Upload, and tests. Empty
// batches keep a nil Results slice.
func (b *RecordBatch) ToUploadBatch() UploadBatch {
	ub := UploadBatch{Host: b.Host, Sent: b.Sent, Seq: b.Seq}
	if b.Len() > 0 {
		ub.Results = b.AppendResults(make([]ProbeResult, 0, b.Len()))
	}
	return ub
}

// RecordsFromBatch converts a classic UploadBatch into a fresh
// RecordBatch (one interned route per result — the compatibility path).
func RecordsFromBatch(ub UploadBatch) *RecordBatch {
	b := &RecordBatch{Host: ub.Host, Sent: ub.Sent, Seq: ub.Seq}
	b.Grow(len(ub.Results), len(ub.Results))
	for i := range ub.Results {
		b.AppendResult(ub.Results[i])
	}
	return b
}

// RecordSink receives flat record batches. Delivered batches are
// borrowed: they are valid only for the duration of the call and the
// receiver must copy out (AppendFrom) anything it keeps. The concurrency
// contract is UploadSink's: a sink served by a wire.Server is called
// from every connection's goroutine at once.
type RecordSink interface {
	UploadRecords(b *RecordBatch)
}

// --- flat binary encoding ----------------------------------------------
//
// Deterministic little-endian layout (version 1). It is what the wire
// carries for an upload (internal/wire's record frame):
//
//	u8  version
//	str host            (u32 len + bytes)
//	i64 sent, u64 seq
//	u32 nRoutes, then per route:
//	    u8 kind; str srcDev, srcHost, dstDev, dstHost;
//	    addr srcIP, dstIP (u8 len + bytes, len ∈ {0,4,16});
//	    u16 srcPort; u32 dstQPN;
//	    u32 nProbe + i64 links; u32 nAck + i64 links
//	u32 nRecords, then full columns in order:
//	    routeIdx (u32 each), seq (u64), sentAt (i64), flags (u8),
//	    rtt, probd, respd, oneway (i64 each)

const (
	recordWireVersion = 1
	maxWireString     = 4096
	maxWirePath       = 1 << 16

	// recordWireSize is one record's share of the column block; column c
	// of an n-record batch starts at n × its col* offset.
	recordWireSize = 53
	colRouteIdx    = 0
	colSeq         = 4
	colSentAt      = 12
	colFlags       = 20
	colRTT         = 21
	colProbD       = 29
	colRespD       = 37
	colOneWay      = 45
)

var errShortBuffer = errors.New("proto: record batch truncated")

type wireWriter struct{ b []byte }

func (w *wireWriter) u8(v uint8)   { w.b = append(w.b, v) }
func (w *wireWriter) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *wireWriter) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wireWriter) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wireWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *wireWriter) str(s string) { w.u32(uint32(len(s))); w.b = append(w.b, s...) }
func (w *wireWriter) addr(a netip.Addr) {
	if !a.IsValid() {
		w.u8(0)
		return
	}
	raw := a.As16()
	if a.Is4() {
		v4 := a.As4()
		w.u8(4)
		w.b = append(w.b, v4[:]...)
		return
	}
	w.u8(16)
	w.b = append(w.b, raw[:]...)
}
func (w *wireWriter) path(p []topo.LinkID) {
	w.u32(uint32(len(p)))
	for _, l := range p {
		w.i64(int64(l))
	}
}
func (w *wireWriter) header(host topo.HostID, sent sim.Time, seq uint64) {
	w.u8(recordWireVersion)
	w.str(string(host))
	w.i64(int64(sent))
	w.u64(seq)
}
func (w *wireWriter) route(rt *Route) {
	w.u8(uint8(rt.Kind))
	w.str(string(rt.SrcDev))
	w.str(string(rt.SrcHost))
	w.str(string(rt.DstDev))
	w.str(string(rt.DstHost))
	w.addr(rt.SrcIP)
	w.addr(rt.DstIP)
	w.u16(rt.SrcPort)
	w.u32(uint32(rt.DstQPN))
	w.path(rt.ProbePath)
	w.path(rt.AckPath)
}

// columns appends the record count and a zeroed column block for n
// records, returning the block for the caller to fill with putRecord.
func (w *wireWriter) columns(n int) []byte {
	w.u32(uint32(n))
	off := len(w.b)
	w.b = append(w.b, make([]byte, n*recordWireSize)...)
	return w.b[off:]
}

// putRecord writes record i of n into its slot of every column.
func putRecord(cols []byte, n, i int, route uint32, seq uint64, sentAt sim.Time, flags uint8, rtt, probd, respd, oneway sim.Time) {
	le := binary.LittleEndian
	le.PutUint32(cols[colRouteIdx*n+4*i:], route)
	le.PutUint64(cols[colSeq*n+8*i:], seq)
	le.PutUint64(cols[colSentAt*n+8*i:], uint64(sentAt))
	cols[colFlags*n+i] = flags
	le.PutUint64(cols[colRTT*n+8*i:], uint64(rtt))
	le.PutUint64(cols[colProbD*n+8*i:], uint64(probd))
	le.PutUint64(cols[colRespD*n+8*i:], uint64(respd))
	le.PutUint64(cols[colOneWay*n+8*i:], uint64(oneway))
}

type wireReader struct {
	b   []byte
	off int
	err error
	d   *Decoder // where str and path intern what they read
}

func (r *wireReader) fail() { r.err = errShortBuffer }

// next consumes n bytes, or fails and returns nil if fewer are left.
func (r *wireReader) next(n int) []byte {
	if r.err != nil || n > len(r.b)-r.off {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}
func (r *wireReader) u8() uint8 {
	if v := r.next(1); v != nil {
		return v[0]
	}
	return 0
}
func (r *wireReader) u16() uint16 {
	if v := r.next(2); v != nil {
		return binary.LittleEndian.Uint16(v)
	}
	return 0
}
func (r *wireReader) u32() uint32 {
	if v := r.next(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}
func (r *wireReader) u64() uint64 {
	if v := r.next(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}
func (r *wireReader) i64() int64 { return int64(r.u64()) }
func (r *wireReader) str() string {
	if n := r.u32(); n > maxWireString {
		r.fail()
	} else if v := r.next(int(n)); v != nil {
		return r.d.str(v)
	}
	return ""
}
func (r *wireReader) addr() netip.Addr {
	switch n := r.u8(); n {
	case 0:
		return netip.Addr{}
	case 4:
		if v := r.next(4); v != nil {
			return netip.AddrFrom4([4]byte(v))
		}
	case 16:
		if v := r.next(16); v != nil {
			return netip.AddrFrom16([16]byte(v))
		}
	default:
		r.fail()
	}
	return netip.Addr{}
}
func (r *wireReader) path() []topo.LinkID {
	if n := r.u32(); n > maxWirePath {
		r.fail()
	} else if v := r.next(8 * int(n)); v != nil {
		return r.d.path(v)
	}
	return nil
}

// MarshalBinary encodes the batch in the deterministic flat layout.
func (b *RecordBatch) MarshalBinary() ([]byte, error) {
	return b.AppendBinary(make([]byte, 0, 64+len(b.routes)*96+b.Len()*recordWireSize))
}

// AppendBinary appends the batch's flat encoding to dst and returns the
// extended slice (encoding.BinaryAppender). The error is always nil.
func (b *RecordBatch) AppendBinary(dst []byte) ([]byte, error) {
	w := wireWriter{b: dst}
	w.header(b.Host, b.Sent, b.Seq)
	w.u32(uint32(len(b.routes)))
	for i := range b.routes {
		w.route(&b.routes[i])
	}
	n := b.Len()
	cols := w.columns(n)
	for i := 0; i < n; i++ {
		putRecord(cols, n, i, uint32(b.routeIdx[i]), b.seq[i], b.sentAt[i], b.flags[i], b.rtt[i], b.probd[i], b.respd[i], b.oneway[i])
	}
	return w.b, nil
}

// sameRoute reports whether two results belong on one route entry: every
// addressing field equal, and the very same path slices — which is how
// the results materialized from one route table entry share them.
func sameRoute(a, b *ProbeResult) bool {
	return a.SrcPort == b.SrcPort && a.DstQPN == b.DstQPN && a.Kind == b.Kind &&
		samePath(a.ProbePath, b.ProbePath) && samePath(a.AckPath, b.AckPath) &&
		a.DstDev == b.DstDev && a.SrcDev == b.SrcDev &&
		a.DstHost == b.DstHost && a.SrcHost == b.SrcHost &&
		a.DstIP == b.DstIP && a.SrcIP == b.SrcIP
}

func samePath(a, b []topo.LinkID) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// routeSeed keys the encoder's hash table. It moves table slots, never
// route numbers, so encodings do not depend on it.
var routeSeed = maphash.MakeSeed()

// BatchEncoder encodes boxed UploadBatches straight into RecordBatch's
// flat layout, without building the RecordBatch. Results on the same
// route (sameRoute) share one entry, numbered in order of first
// appearance, so the encoding of b.ToUploadBatch() is that of b whenever
// b's route table is free of duplicates and unused entries. The zero
// value is ready to use; an encoder keeps its scratch between calls and
// is not safe for concurrent use.
type BatchEncoder struct {
	table    []int32  // open-addressed: 1 + route number, 0 empty
	first    []int    // first[r]: the first result on route r
	routeIdx []uint32 // per result
}

// intern assigns each result its route number.
func (e *BatchEncoder) intern(rs []ProbeResult) {
	size := 8
	for size < 2*len(rs) {
		size <<= 1
	}
	if cap(e.table) < size {
		e.table = make([]int32, size)
	} else {
		e.table = e.table[:size]
		clear(e.table)
	}
	e.first, e.routeIdx = e.first[:0], e.routeIdx[:0]
	mask := uint64(size - 1)
	for i := range rs {
		p := &rs[i]
		h := maphash.String(routeSeed, string(p.DstDev)) ^ maphash.String(routeSeed, string(p.SrcDev)) ^
			uint64(p.SrcPort)<<32 ^ uint64(p.DstQPN)
		for slot := h & mask; ; slot = (slot + 1) & mask {
			r := e.table[slot]
			if r == 0 {
				e.first = append(e.first, i)
				r = int32(len(e.first))
				e.table[slot] = r
			} else if !sameRoute(p, &rs[e.first[r-1]]) {
				continue
			}
			e.routeIdx = append(e.routeIdx, uint32(r-1))
			break
		}
	}
}

// AppendBinary appends ub's flat encoding to dst and returns the
// extended slice.
func (e *BatchEncoder) AppendBinary(dst []byte, ub *UploadBatch) []byte {
	e.intern(ub.Results)
	w := wireWriter{b: dst}
	w.header(ub.Host, ub.Sent, ub.Seq)
	w.u32(uint32(len(e.first)))
	for _, i := range e.first {
		rt := routeOf(&ub.Results[i])
		w.route(&rt)
	}
	n := len(ub.Results)
	cols := w.columns(n)
	for i := range ub.Results {
		p := &ub.Results[i]
		putRecord(cols, n, i, e.routeIdx[i], p.Seq, p.SentAt, resultFlags(p), p.NetworkRTT, p.ProberDelay, p.ResponderDelay, p.OneWayDelay)
	}
	return w.b
}

// UnmarshalBinary decodes data into b, replacing its contents: Decode
// with a zero Decoder, which interns nothing, so nothing in b aliases
// data or is shared with another batch.
func (b *RecordBatch) UnmarshalBinary(data []byte) error {
	var d Decoder
	return d.Decode(b, data)
}

// Per-entry overheads of the intern tables: a map slot's key and value
// headers. A string entry's key and value share one copy of its bytes; a
// path entry holds its encoded bytes as the key and its links as the
// value.
const (
	strEntryBytes  = 16 + 16
	pathEntryBytes = 16 + 24
)

// Decoder decodes the flat layout into fresh RecordBatches, interning the
// route strings and paths it reads across the batches it decodes: an
// agent sends the same device and host IDs and the same traced paths in
// every upload, and a repeat costs one map lookup keyed by its encoded
// bytes instead of an allocation. What it hands out is shared between
// batches, which is safe because nothing writes to it: strings are
// immutable, and an interned path is full (len == cap), so an append to
// it reallocates. Everything else — the route table and the columns — is
// fresh per batch and belongs to the caller.
//
// The tables hold at most a fixed number of bytes (keys, values and
// their map-slot headers); an entry that would exceed it clears them and
// starts again. The zero Decoder's budget is 0: it interns nothing. A
// Decoder is not safe for concurrent use.
type Decoder struct {
	strs   map[string]string
	paths  map[string][]topo.LinkID
	held   int
	budget int
}

// NewDecoder returns a Decoder whose intern tables hold at most budget
// bytes.
func NewDecoder(budget int) *Decoder {
	return &Decoder{strs: make(map[string]string), paths: make(map[string][]topo.LinkID), budget: budget}
}

// Interned reports the bytes the intern tables hold.
func (d *Decoder) Interned() int { return d.held }

// admit makes room for an entry of cost bytes, clearing the tables if it
// does not fit beside what they hold. It reports false, leaving the
// tables alone, for an entry larger than the whole budget.
func (d *Decoder) admit(cost int) bool {
	if cost > d.budget {
		return false
	}
	if d.held+cost > d.budget {
		clear(d.strs)
		clear(d.paths)
		d.held = 0
	}
	d.held += cost
	return true
}

// str returns raw as an interned string. An entry goes in only once its
// bytes have all been read, so a batch rejected later leaves the tables
// holding nothing half-decoded.
func (d *Decoder) str(raw []byte) string {
	if len(raw) == 0 {
		return ""
	}
	if s, ok := d.strs[string(raw)]; ok {
		return s
	}
	s := string(raw)
	if d.admit(len(s) + strEntryBytes) {
		d.strs[s] = s
	}
	return s
}

// path returns the links raw encodes (8 bytes each) as an interned path.
func (d *Decoder) path(raw []byte) []topo.LinkID {
	if len(raw) == 0 {
		return nil
	}
	if p, ok := d.paths[string(raw)]; ok {
		return p
	}
	p := make([]topo.LinkID, len(raw)/8) // len == cap: an append reallocates
	for i := range p {
		p[i] = topo.LinkID(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	if d.admit(2*len(raw) + pathEntryBytes) {
		d.paths[string(raw)] = p
	}
	return p
}

// Decode decodes data into b, replacing its contents. It never panics on
// malformed input: any truncation, length-cap violation, bad probe kind,
// out-of-range route index or trailing byte yields an error. Nothing in
// b aliases data afterwards; its strings and paths may be shared with
// batches the Decoder decoded before.
func (d *Decoder) Decode(b *RecordBatch, data []byte) error {
	r := wireReader{b: data, d: d}
	if v := r.u8(); r.err == nil && v != recordWireVersion {
		return errors.New("proto: unsupported record batch version")
	}
	host := r.str()
	sent := sim.Time(r.i64())
	seq := r.u64()

	nr := int(r.u32())
	// Each route costs ≥ 32 encoded bytes; cap against the buffer so a
	// forged count can't force a giant allocation.
	if r.err != nil || nr > len(data)/32+1 {
		return errShortBuffer
	}
	routes := make([]Route, 0, nr)
	for i := 0; i < nr; i++ {
		kind := ProbeKind(r.u8())
		if r.err == nil && (kind < ToRMesh || kind > ServiceTracing) {
			return errors.New("proto: bad probe kind")
		}
		rt := Route{
			Kind:    kind,
			SrcDev:  topo.DeviceID(r.str()),
			SrcHost: topo.HostID(r.str()),
			DstDev:  topo.DeviceID(r.str()),
			DstHost: topo.HostID(r.str()),
			SrcIP:   r.addr(),
			DstIP:   r.addr(),
		}
		rt.SrcPort = r.u16()
		rt.DstQPN = rnic.QPN(r.u32())
		rt.ProbePath = r.path()
		rt.AckPath = r.path()
		if r.err != nil {
			return r.err
		}
		routes = append(routes, rt)
	}

	n := int(r.u32())
	// The column block is exactly what is left, which also bounds the
	// column allocations by the bytes received.
	if r.err != nil || n > (len(data)-r.off)/recordWireSize {
		return errShortBuffer
	}
	if len(data)-r.off != n*recordWireSize {
		return errors.New("proto: trailing bytes after record batch")
	}
	cols := data[r.off:]
	dec := RecordBatch{Host: topo.HostID(host), Sent: sent, Seq: seq}
	dec.routes = routes
	if n > 0 {
		dec.routeIdx = make([]int32, n)
		dec.seq = make([]uint64, n)
		dec.flags = make([]uint8, n)
		// The five time columns share one arena, each capped at its end
		// so an append to one reallocates instead of overwriting the next.
		arena := make([]sim.Time, 5*n)
		col := func(k int) []sim.Time { return arena[k*n : (k+1)*n : (k+1)*n] }
		dec.sentAt, dec.rtt, dec.probd, dec.respd, dec.oneway = col(0), col(1), col(2), col(3), col(4)
	}
	le := binary.LittleEndian
	for i := 0; i < n; i++ {
		ri := le.Uint32(cols[colRouteIdx*n+4*i:])
		if int(ri) >= len(routes) {
			return errors.New("proto: route index out of range")
		}
		dec.routeIdx[i] = int32(ri)
		dec.seq[i] = le.Uint64(cols[colSeq*n+8*i:])
		dec.sentAt[i] = sim.Time(le.Uint64(cols[colSentAt*n+8*i:]))
		dec.rtt[i] = sim.Time(le.Uint64(cols[colRTT*n+8*i:]))
		dec.probd[i] = sim.Time(le.Uint64(cols[colProbD*n+8*i:]))
		dec.respd[i] = sim.Time(le.Uint64(cols[colRespD*n+8*i:]))
		dec.oneway[i] = sim.Time(le.Uint64(cols[colOneWay*n+8*i:]))
	}
	copy(dec.flags, cols[colFlags*n:])
	*b = dec
	return nil
}
