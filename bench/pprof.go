package main

// pprof.go takes a runtime/pprof CPU profile of the traced section into
// memory and decodes it in-process — gzip plus the handful of protobuf
// fields of profile.proto needed to name each sample's leaf function —
// to split self CPU by package. No subprocess, no new dependency; a
// decode failure drops only the cpu_share.* metrics.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuLayers are the cpu_share.* buckets, in reporting order.
var cpuLayers = []string{
	"sim", "simnet", "rnic", "verbs", "agent", "proto", "wire", "pipeline",
	"analyzer", "localizer", "tsdb", "alert", "api", "encoding_json",
	"net_http", "net_syscall", "runtime_gc", "runtime_other", "bench", "other",
}

type cpuProfile struct{ buf bytes.Buffer }

func (t *tracer) startProfile() error {
	t.prof = &cpuProfile{}
	return pprof.StartCPUProfile(&t.prof.buf)
}

// stopProfile ends the profile and returns self CPU share (percent) by
// layer; nil with an error when the profile cannot be decoded.
func (t *tracer) stopProfile() (map[string]float64, error) {
	if t.prof == nil {
		return nil, errors.New("no profile running")
	}
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(&t.prof.buf)
	if err != nil {
		return nil, fmt.Errorf("pprof: gunzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: gunzip: %w", err)
	}
	return decodeCPUShares(raw)
}

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num   int
	wire  int
	val   uint64
	bytes []byte
}

var errPB = errors.New("pprof: malformed protobuf")

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errPB
}

// pbNext pops one field off b.
func pbNext(b []byte) (pbField, []byte, error) {
	key, b, err := pbVarint(b)
	if err != nil {
		return pbField{}, nil, err
	}
	f := pbField{num: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0:
		f.val, b, err = pbVarint(b)
	case 1:
		if len(b) < 8 {
			return f, nil, errPB
		}
		b = b[8:]
	case 2:
		var n uint64
		n, b, err = pbVarint(b)
		if err == nil {
			if n > uint64(len(b)) {
				return f, nil, errPB
			}
			f.bytes, b = b[:n], b[n:]
		}
	case 5:
		if len(b) < 4 {
			return f, nil, errPB
		}
		b = b[4:]
	default:
		return f, nil, errPB
	}
	return f, b, err
}

// pbUints reads a repeated uint64 field occurrence, packed or not.
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, rest, err := pbVarint(b)
		if err != nil {
			return dst, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// decodeCPUShares walks Profile{sample=2, location=4, function=5,
// string_table=6}: Sample{location_id=1, value=2}, Location{id=1,
// line=4}, Line{function_id=1}, Function{id=1, name=2}. The CPU value is
// the last one of each sample (cpu/nanoseconds).
func decodeCPUShares(raw []byte) (map[string]float64, error) {
	type sample struct {
		locs []uint64
		cpu  int64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id → leaf function id
		fnName  = map[uint64]int{}    // function id → string index
		strs    []string
	)
	for b := raw; len(b) > 0; {
		f, rest, err := pbNext(b)
		if err != nil {
			return nil, err
		}
		b = rest
		switch f.num {
		case 2:
			var s sample
			var vals []uint64
			for sb := f.bytes; len(sb) > 0; {
				sf, srest, err := pbNext(sb)
				if err != nil {
					return nil, err
				}
				sb = srest
				switch sf.num {
				case 1:
					if s.locs, err = pbUints(sf, s.locs); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = pbUints(sf, vals); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.cpu = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4:
			var id, leaf uint64
			haveLeaf := false
			for lb := f.bytes; len(lb) > 0; {
				lf, lrest, err := pbNext(lb)
				if err != nil {
					return nil, err
				}
				lb = lrest
				switch lf.num {
				case 1:
					id = lf.val
				case 4:
					if haveLeaf { // line[0] is the innermost inlined frame
						continue
					}
					for nb := lf.bytes; len(nb) > 0; {
						nf, nrest, err := pbNext(nb)
						if err != nil {
							return nil, err
						}
						nb = nrest
						if nf.num == 1 {
							leaf, haveLeaf = nf.val, true
						}
					}
				}
			}
			locFn[id] = leaf
		case 5:
			var id uint64
			var name int
			for fb := f.bytes; len(fb) > 0; {
				ff, frest, err := pbNext(fb)
				if err != nil {
					return nil, err
				}
				fb = frest
				switch ff.num {
				case 1:
					id = ff.val
				case 2:
					name = int(ff.val)
				}
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(f.bytes))
		}
	}
	if len(samples) == 0 {
		return nil, errors.New("pprof: profile holds no samples")
	}
	name := func(loc uint64) string {
		if i := fnName[locFn[loc]]; i >= 0 && i < len(strs) {
			return strs[i]
		}
		return ""
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		if len(s.locs) == 0 {
			continue
		}
		layer := ""
		for _, loc := range s.locs { // any GC frame on the stack claims the sample
			if isGCFrame(name(loc)) {
				layer = "runtime_gc"
				break
			}
		}
		// Otherwise the leaf's package claims it, except that a helper
		// package (strconv under encoding/json, container/heap under sim)
		// hands the sample to the nearest caller that is not a helper.
		for i := 0; layer == "" && i < len(s.locs); i++ {
			layer = layerOf(name(s.locs[i]))
		}
		if layer == "" {
			layer = "other"
		}
		byLayer[layer] += s.cpu
		total += s.cpu
	}
	if total == 0 {
		return nil, errors.New("pprof: profile holds no CPU time")
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 100 * float64(byLayer[l]) / float64(total)
	}
	return out, nil
}

func isGCFrame(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination":
		return true
	}
	return false
}

// layerOf maps a function to its cpu_share bucket by package; "" marks a
// helper package whose time belongs to its caller.
func layerOf(fn string) string {
	pkg := fn
	if slash := strings.LastIndexByte(fn, '/'); slash >= 0 {
		if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
			pkg = fn[:slash+dot]
		}
	} else if dot := strings.IndexByte(fn, '.'); dot >= 0 {
		pkg = fn[:dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "rpingmesh/internal/"); ok {
		for _, l := range cpuLayers {
			if l == rest {
				return l
			}
		}
		return "other" // topo, ecmp, metrics, controller, …: packages the list does not name
	}
	switch {
	case pkg == "main" || pkg == "rpingmesh/bench" || pkg == "rpingmesh":
		return "bench"
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/") || pkg == "net/textproto" || pkg == "net/url" || pkg == "mime":
		return "net_http"
	case strings.HasPrefix(pkg, "internal/runtime/syscall"), pkg == "syscall", pkg == "net", pkg == "internal/poll",
		strings.HasPrefix(pkg, "internal/syscall"):
		return "net_syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"),
		pkg == "internal/bytealg", pkg == "internal/abi":
		return "runtime_other"
	}
	return ""
}
