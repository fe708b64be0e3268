package simnet

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"rpingmesh/internal/ecmp"
	"rpingmesh/internal/qos"
	"rpingmesh/internal/rnic"
	"rpingmesh/internal/sim"
	"rpingmesh/internal/topo"
)

var updateQoSGolden = flag.Bool("update-qos-golden", false, "rewrite testdata/qos_golden.json")

// The scenario's class roles under qos.Profile(4): DSCP 8 rides class 1
// (the storage priority the storm lives on), DSCP 16 rides class 2 (the
// GPU priority that must stay clean), class 3 carries CNPs.
const (
	dscpStorage = 8
	dscpGPU     = 16
)

func TestQoSDisabledMatchesLegacy(t *testing.T) {
	// Classes<=1 must take the classic single-queue path exactly: same
	// probe latencies, same flow rates, tick for tick.
	type sample struct {
		lat  sim.Time
		rate float64
	}
	run := func(cfg Config) []sample {
		r := newRig(t, cfg)
		a, b := r.pairCrossPod(t)
		f, err := r.net.AddFlow(FlowSpec{
			Src: a, Dst: b,
			Tuple:      ecmp.RoCETuple(r.devs[a].IP(), r.devs[b].IP(), 31),
			DemandGbps: 400,
		})
		if err != nil {
			t.Fatal(err)
		}
		var out []sample
		for i := 0; i < 10; i++ {
			_, lat := r.sendProbe(t, a, b, uint16(100+i))
			out = append(out, sample{lat: lat, rate: f.Rate()})
		}
		return out
	}
	legacy := run(Config{})
	disabled := run(Config{QoS: qos.Profile(1)})
	for i := range legacy {
		if legacy[i] != disabled[i] {
			t.Fatalf("sample %d diverged: legacy %+v vs qos-disabled %+v", i, legacy[i], disabled[i])
		}
	}
}

func TestQoSClassOfPacketAndFlow(t *testing.T) {
	r := newRig(t, Config{QoS: qos.Profile(4)})
	if !r.net.qosEnabled() {
		t.Fatal("QoS not enabled")
	}
	if r.net.ClassOf(dscpStorage) != 1 || r.net.ClassOf(dscpGPU) != 2 {
		t.Fatalf("unexpected class map: storage=%d gpu=%d",
			r.net.ClassOf(dscpStorage), r.net.ClassOf(dscpGPU))
	}
	a, b := r.pairCrossPod(t)
	f, err := r.net.AddFlow(FlowSpec{
		Src: a, Dst: b,
		Tuple:      ecmp.RoCETuple(r.devs[a].IP(), r.devs[b].IP(), 5),
		DemandGbps: 10, DSCP: dscpStorage,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Class() != 1 {
		t.Fatalf("flow class = %d, want 1", f.Class())
	}
}

// qosGolden pins the class-selective impact of a seeded PFC storm: the
// paused (storage) class P99 must dwarf the unpaused (GPU) class P99.
type qosGolden struct {
	StorageP99Ns int64 `json:"storage_p99_ns"`
	GPUP99Ns     int64 `json:"gpu_p99_ns"`
	// PausedStorageLinks counts (link, sample) pairs observed PFC-paused
	// for the storage class across the run; the GPU class must stay 0.
	PausedStorageLinks int `json:"paused_storage_links"`
	PausedGPULinks     int `json:"paused_gpu_links"`
}

func p99(lats []sim.Time) sim.Time {
	if len(lats) == 0 {
		return 0
	}
	s := append([]sim.Time(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)*99)/100]
}

// TestQoSPauseStormClassSelective is the seeded PFC-storm-propagation
// scenario of ISSUE 8: a storage-class incast onto one host crosses the
// downlink's XOff, the ToR asserts pause, backpressure climbs into the
// aggs, and every storage-class probe through the region inherits
// multi-hop pause waits — while GPU-class probes on the same wires stay
// at idle latency. The resulting P99s are pinned in testdata.
func TestQoSPauseStormClassSelective(t *testing.T) {
	r := newRig(t, Config{QoS: qos.Profile(4)})

	// Two full-rate storage flows incast onto one RNIC: 800G offered into
	// a 400G downlink.
	srcs := r.tp.RNICsUnderToR("tor-0-0")
	dst := r.tp.RNICsUnderToR("tor-0-1")[0]
	for i, s := range srcs[:2] {
		if _, err := r.net.AddFlow(FlowSpec{
			Src: s, Dst: dst,
			Tuple:      ecmp.RoCETuple(r.devs[s].IP(), r.devs[dst].IP(), uint16(4000+i)),
			DemandGbps: 400, DSCP: dscpStorage,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// A remote prober sends one storage and one GPU probe per ms at the
	// incast victim; both ride the same wires into tor-0-1.
	prober := r.tp.RNICsUnderToR("tor-1-0")[0]
	sendTimes := map[uint64]sim.Time{}
	var storageLat, gpuLat []sim.Time
	r.qps[dst].OnCompletion(func(c rnic.CQE) {
		if c.Type != rnic.CQERecv {
			return
		}
		lat := r.eng.Now() - sendTimes[c.WRID]
		if c.WRID >= 2000 {
			gpuLat = append(gpuLat, lat)
		} else {
			storageLat = append(storageLat, lat)
		}
	})
	post := func(wrid uint64, dscp uint8) {
		sendTimes[wrid] = r.eng.Now()
		if err := r.qps[prober].PostSend(rnic.SendRequest{
			WRID: wrid, SrcPort: 777, DSCP: dscp,
			DstIP: r.devs[dst].IP(), DstGID: r.devs[dst].GID(), DstQPN: r.qps[dst].QPN(),
			Payload: make([]byte, 50),
		}); err != nil {
			t.Fatal(err)
		}
	}
	pausedStorage, pausedGPU := 0, 0
	for k := 0; k < 100; k++ {
		k := k
		r.eng.After(sim.Time(k)*sim.Millisecond+500*sim.Microsecond, func() {
			post(uint64(1000+k), dscpStorage)
			post(uint64(2000+k), dscpGPU)
			for li := range r.tp.Links {
				if r.net.classPausedOn(topo.LinkID(li), 1) {
					pausedStorage++
				}
				if r.net.classPausedOn(topo.LinkID(li), 2) {
					pausedGPU++
				}
			}
		})
	}
	r.eng.RunUntil(r.eng.Now() + 120*sim.Millisecond)

	if len(storageLat) != 100 || len(gpuLat) != 100 {
		t.Fatalf("probe loss on a lossless fabric: storage %d/100, gpu %d/100",
			len(storageLat), len(gpuLat))
	}
	got := qosGolden{
		StorageP99Ns:       int64(p99(storageLat)),
		GPUP99Ns:           int64(p99(gpuLat)),
		PausedStorageLinks: pausedStorage,
		PausedGPULinks:     pausedGPU,
	}

	// Class selectivity regardless of the pinned numbers.
	if got.PausedStorageLinks == 0 {
		t.Fatal("PFC never asserted on the storage class")
	}
	if got.PausedGPULinks != 0 {
		t.Fatalf("pause leaked onto the GPU class: %d samples", got.PausedGPULinks)
	}
	if got.StorageP99Ns < 10*got.GPUP99Ns {
		t.Fatalf("paused class P99 (%dns) not ≫ unpaused class P99 (%dns)",
			got.StorageP99Ns, got.GPUP99Ns)
	}

	path := filepath.Join("testdata", "qos_golden.json")
	if *updateQoSGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s: %+v", path, got)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-qos-golden to create): %v", err)
	}
	var want qosGolden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("QoS storm drifted from golden:\n got  %+v\n want %+v", got, want)
	}
}

// TestQoSPauseReleases proves the hysteresis resolves: once the incast
// demand stops, queues drain below XOn and every pause deasserts.
func TestQoSPauseReleases(t *testing.T) {
	r := newRig(t, Config{QoS: qos.Profile(4)})
	srcs := r.tp.RNICsUnderToR("tor-0-0")
	dst := r.tp.RNICsUnderToR("tor-0-1")[0]
	var flows []*Flow
	for i, s := range srcs[:2] {
		f, err := r.net.AddFlow(FlowSpec{
			Src: s, Dst: dst,
			Tuple:      ecmp.RoCETuple(r.devs[s].IP(), r.devs[dst].IP(), uint16(4100+i)),
			DemandGbps: 400, DSCP: dscpStorage,
		})
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
	}
	r.eng.RunUntil(r.eng.Now() + 20*sim.Millisecond)
	anyPaused := func() bool {
		for li := range r.tp.Links {
			if r.net.classPausedOn(topo.LinkID(li), 1) {
				return true
			}
		}
		return false
	}
	if !anyPaused() {
		t.Fatal("incast never asserted pause")
	}
	for _, f := range flows {
		r.net.SetFlowDemand(f.ID, 0)
	}
	r.eng.RunUntil(r.eng.Now() + 100*sim.Millisecond)
	if anyPaused() {
		t.Fatal("pause never released after demand stopped")
	}
	for li := range r.tp.Links {
		if b := r.net.ClassQueueBytesOn(topo.LinkID(li), 1); b > 0 {
			t.Fatalf("standing storage queue %v on link %d after drain", b, li)
		}
	}
}

// TestQoSRemapDSCPStrandsTraffic covers the mis-mapped-DSCP fault: after
// remapping the GPU codepoint onto the stormed storage class, GPU probes
// inherit the storm's latency.
func TestQoSRemapDSCPStrandsTraffic(t *testing.T) {
	r := newRig(t, Config{QoS: qos.Profile(4)})
	srcs := r.tp.RNICsUnderToR("tor-0-0")
	dst := r.tp.RNICsUnderToR("tor-0-1")[0]
	for i, s := range srcs[:2] {
		if _, err := r.net.AddFlow(FlowSpec{
			Src: s, Dst: dst,
			Tuple:      ecmp.RoCETuple(r.devs[s].IP(), r.devs[dst].IP(), uint16(4200+i)),
			DemandGbps: 400, DSCP: dscpStorage,
		}); err != nil {
			t.Fatal(err)
		}
	}
	prober := r.tp.RNICsUnderToR("tor-1-0")[0]
	r.eng.RunUntil(r.eng.Now() + 20*sim.Millisecond)

	send := func(dscp uint8, wrid uint64) sim.Time {
		start := r.eng.Now()
		var lat sim.Time
		r.qps[dst].OnCompletion(func(c rnic.CQE) {
			if c.Type == rnic.CQERecv && c.WRID == wrid {
				lat = r.eng.Now() - start
			}
		})
		if err := r.qps[prober].PostSend(rnic.SendRequest{
			WRID: wrid, SrcPort: 888, DSCP: dscp,
			DstIP: r.devs[dst].IP(), DstGID: r.devs[dst].GID(), DstQPN: r.qps[dst].QPN(),
			Payload: make([]byte, 50),
		}); err != nil {
			t.Fatal(err)
		}
		r.eng.RunUntil(r.eng.Now() + 10*sim.Millisecond)
		return lat
	}
	cleanGPU := send(dscpGPU, 1)
	r.net.RemapDSCP(dscpGPU, 1) // the misconfiguration
	strandedGPU := send(dscpGPU, 2)
	if strandedGPU < 5*cleanGPU {
		t.Fatalf("remapped GPU probe %v not stranded on stormed class (clean %v)", strandedGPU, cleanGPU)
	}
}
