// Package ecmp implements the ECMP machinery R-Pingmesh relies on: the
// outer 5-tuple that identifies a RoCE flow on the wire, per-switch
// flow hashing, and the Equation-1 solver the Controller uses to size
// inter-ToR pinglists (§4.1).
//
// RoCE v2 packets are RDMA messages encapsulated over UDP: the outer
// destination port is always 4791 and the protocol is UDP, so ECMP path
// selection is controlled entirely by the source IP, destination IP, and
// source UDP port. The verbs API lets an application pick the source port
// (via the flow label), which is how both services and R-Pingmesh probes
// steer themselves onto specific parallel paths.
package ecmp

import (
	"fmt"
	"math"
	"net/netip"

	"rpingmesh/internal/topo"
)

// RoCEPort is the well-known outer UDP destination port of RoCE v2.
const RoCEPort = 4791

// ProtoUDP is the IP protocol number of UDP.
const ProtoUDP = 17

// FiveTuple is the outer header 5-tuple that switches hash for ECMP.
type FiveTuple struct {
	SrcIP   netip.Addr
	DstIP   netip.Addr
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// RoCETuple builds a RoCE v2 5-tuple (UDP, destination port 4791).
func RoCETuple(src, dst netip.Addr, srcPort uint16) FiveTuple {
	return FiveTuple{SrcIP: src, DstIP: dst, SrcPort: srcPort, DstPort: RoCEPort, Proto: ProtoUDP}
}

// reverse returns the tuple of traffic flowing the other way. The paper's
// responders send ACKs using the same source port as the probe (mimicking
// how RNICs send RC ACKs), so a probe's ACK path is the ECMP path of the
// reversed tuple.
func (ft FiveTuple) reverse() FiveTuple {
	return FiveTuple{SrcIP: ft.DstIP, DstIP: ft.SrcIP, SrcPort: ft.DstPort, DstPort: ft.SrcPort, Proto: ft.Proto}
}

func (ft FiveTuple) String() string {
	return fmt.Sprintf("%s:%d>%s:%d/%d", ft.SrcIP, ft.SrcPort, ft.DstIP, ft.DstPort, ft.Proto)
}

// hash64 is FNV-1a over the tuple bytes and an extra label, giving each
// switch an independent-looking hash function, as real fabrics achieve by
// seeding the hardware hash per switch.
func (ft FiveTuple) hash64(label string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(bs ...byte) {
		for _, b := range bs {
			h ^= uint64(b)
			h *= prime
		}
	}
	a := ft.SrcIP.As4()
	mix(a[:]...)
	a = ft.DstIP.As4()
	mix(a[:]...)
	mix(byte(ft.SrcPort>>8), byte(ft.SrcPort))
	mix(byte(ft.DstPort>>8), byte(ft.DstPort))
	mix(ft.Proto)
	for i := 0; i < len(label); i++ {
		mix(label[i])
	}
	// FNV's low bits are weak under modulo bucketing; finish with a
	// murmur3-style avalanche so every output bit depends on every input.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Hasher returns a topo.Hasher that selects uplinks for this flow. Every
// switch hashes the same tuple with its own identity mixed in, so the
// choice sequence is deterministic per (tuple, path) — packets of one flow
// always take the same path, which is what makes service tracing probes
// with copied 5-tuples follow the service's exact path.
func (ft FiveTuple) Hasher() topo.Hasher {
	return topo.HasherFunc(func(sw topo.DeviceID, n int) int {
		return int(ft.hash64(string(sw)) % uint64(n))
	})
}

// CoverageProbability returns the probability that k independent uniform
// path choices cover all N parallel paths (inclusion–exclusion):
//
//	P(cover) = 1 - Σ_{i=1..N} (-1)^{i+1} C(N,i) (1-i/N)^k
func CoverageProbability(n, k int) float64 {
	if n <= 0 {
		return 1
	}
	if k < n {
		return 0
	}
	return 1 - missProbability(n, k)
}

// missProbability is P(at least one of N paths uncovered by k choices),
// computed in log space for numerical stability at large N.
func missProbability(n, k int) float64 {
	miss := 0.0
	logChoose := 0.0 // log C(n, i), updated incrementally
	for i := 1; i <= n; i++ {
		logChoose += math.Log(float64(n-i+1)) - math.Log(float64(i))
		frac := 1 - float64(i)/float64(n)
		var term float64
		if frac > 0 {
			term = math.Exp(logChoose + float64(k)*math.Log(frac))
		}
		if i%2 == 1 {
			miss += term
		} else {
			miss -= term
		}
	}
	// Clamp: alternating-series rounding can nudge slightly outside [0,1].
	return math.Min(1, math.Max(0, miss))
}

// TuplesForCoverage solves Equation 1 of the paper: the minimum number of
// random 5-tuples k (k ≥ N) such that they cover all N parallel cross-ToR
// paths with probability at least p. The paper uses p = 0.99.
func TuplesForCoverage(n int, p float64) int {
	if n <= 1 {
		return max(n, 1)
	}
	if p <= 0 {
		return n
	}
	if p >= 1 {
		p = 1 - 1e-12
	}
	target := 1 - p
	// Coupon-collector estimate N·(ln N + ln(1/target)) is an excellent
	// starting point; walk down then up to the exact boundary.
	k := int(float64(n) * (math.Log(float64(n)) + math.Log(1/target)))
	if k < n {
		k = n
	}
	for k > n && missProbability(n, k-1) <= target {
		k--
	}
	for missProbability(n, k) > target {
		k++
	}
	return k
}
