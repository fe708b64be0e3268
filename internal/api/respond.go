package api

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"rpingmesh/internal/tsdb"
)

// body is one response under construction. Every console response is
// built whole in a pooled buffer before its status line goes out: an
// encode failure can still become a 500 instead of a 200 with half a
// body, Content-Length is known, and the bytes reach the connection in
// one Write. Bodies are compact JSON — pipe them through `jq .` to read
// them.
type body struct{ b []byte }

var bodyPool = sync.Pool{New: func() any { return new(body) }}

// maxPooledBody keeps one outsized response (a full window report of a
// big fabric) from pinning its buffer in the pool.
const maxPooledBody = 1 << 20

func newBody() *body { return bodyPool.Get().(*body) }

func (b *body) release() {
	if cap(b.b) <= maxPooledBody {
		b.b = b.b[:0]
		bodyPool.Put(b)
	}
}

// Write lets encoding/json encode straight into the buffer.
func (b *body) Write(p []byte) (int, error) {
	b.b = append(b.b, p...)
	return len(p), nil
}

// marshal appends json.Marshal(v)'s bytes; on error the buffer is
// untouched.
func (b *body) marshal(v any) error {
	// Encode is Marshal plus a newline, handed over in one Write.
	err := json.NewEncoder(b).Encode(v)
	if err == nil {
		b.b = b.b[:len(b.b)-1]
	}
	return err
}

// send writes a finished body: headers, status, one Write.
func send(w http.ResponseWriter, code int, p []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(p)))
	w.WriteHeader(code)
	// A failed write is a departed client; there is no one left to tell.
	_, _ = w.Write(p)
}

// writeJSON answers with v's compact JSON, or with a 500 naming the
// failure when v cannot be encoded.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b := newBody()
	defer b.release()
	if err := b.marshal(v); err != nil {
		code = http.StatusInternalServerError
		// A map of strings always encodes.
		_ = b.marshal(map[string]string{"error": "encode response: " + err.Error()})
	}
	send(w, code, b.b)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// appendPoint appends p as encoding/json renders a tsdb.Point —
// {"T":<int>,"V":<float>}, byte for byte — except that a non-finite V,
// which encoding/json refuses (failing the whole response), goes out as
// null. Points are the one shape that carries volume, so they alone
// bypass reflection.
func appendPoint(dst []byte, p tsdb.Point) []byte {
	dst = append(dst, `{"T":`...)
	dst = strconv.AppendInt(dst, int64(p.T), 10)
	dst = append(dst, `,"V":`...)
	v := p.V
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(dst, "null}"...)
	}
	// encoding/json's float format: shortest round-trip digits, %e only
	// outside [1e-6, 1e21), and a two-digit exponent's leading zero cut.
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' &&
		(dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return append(dst, '}')
}
