package topo

import (
	"fmt"
	"sort"
)

// FabricShard is the shard index of devices that belong to no pod shard
// (spine switches in a 3-tier CLOS). They carry no simulation events of
// their own — packets traverse them inside a single end-to-end delivery —
// so the parallel engine gives them to the fabric/control shard.
const FabricShard = -1

// Sharding is a partition of the topology along pod boundaries, the input
// the parallel discrete-event engine needs: which shard owns every host,
// RNIC and link, which links cross shards, and how far apart (in links)
// two shards' RNICs minimally are — the quantity that, multiplied by the
// per-link propagation delay, bounds the engine's safe lookahead window.
type Sharding struct {
	// Shards is the number of pod shards (excluding the fabric shard).
	Shards int

	// HostShard maps every host to its owning shard.
	HostShard map[HostID]int

	// DevShard maps every device (RNIC or switch) to its owning shard,
	// FabricShard for devices outside every pod shard.
	DevShard map[DeviceID]int

	// CrossEdges lists, exactly once each, every directed link whose
	// endpoints live in different shards (including links touching the
	// fabric shard).
	CrossEdges []LinkID

	// MinCrossPathLinks is the minimum number of links on any path between
	// two RNICs in different shards (6 in a 3-tier CLOS: rnic→tor→agg→
	// spine→agg→tor→rnic). Multiplied by the per-link propagation delay it
	// is the engine's path lookahead: no event in one pod shard can cause
	// an event in another sooner than that. Zero when Shards < 2.
	MinCrossPathLinks int

	// PairMinLinks[a][b] is the minimum number of links on any path from an
	// RNIC in shard a to an RNIC in shard b — the per-pair refinement of
	// MinCrossPathLinks. Pod pairs that are farther apart than the global
	// minimum (grouped shards, asymmetric fabrics) admit proportionally
	// wider conservative windows between just those two shards. Zero on the
	// diagonal and for pairs with no connecting path (no event in a can
	// ever cause one in b). Nil when Shards < 2.
	PairMinLinks [][]int
}

// Partition splits the topology into at most maxShards pod shards. Pods
// are assigned to shards round-robin (pod p → shard p mod maxShards), so
// maxShards >= #pods yields one shard per pod and smaller values group
// pods; grouping only merges shards, which can only increase the minimum
// cross-shard distance's true value, so the computed (post-grouping) bound
// stays safe. Topologies without pod structure (rail-optimized fabrics,
// single-pod CLOS) collapse to a single shard — the caller should fall
// back to the serial engine (Shards < 2).
func (t *Topology) Partition(maxShards int) (Sharding, error) {
	if maxShards < 1 {
		return Sharding{}, fmt.Errorf("topo: Partition needs maxShards >= 1, got %d", maxShards)
	}
	// Collect the distinct pods actually present, in sorted order, and map
	// pod number → shard index deterministically.
	podSet := map[int]bool{}
	for _, h := range t.Hosts {
		podSet[h.Pod] = true
	}
	pods := make([]int, 0, len(podSet))
	for p := range podSet {
		pods = append(pods, p)
	}
	sort.Ints(pods)
	shardOfPod := make(map[int]int, len(pods))
	nShards := 0
	for i, p := range pods {
		s := i % maxShards
		shardOfPod[p] = s
		if s+1 > nShards {
			nShards = s + 1
		}
	}

	sh := Sharding{
		Shards:    nShards,
		HostShard: make(map[HostID]int, len(t.Hosts)),
		DevShard:  make(map[DeviceID]int, len(t.RNICs)+len(t.Switches)),
	}
	for id, h := range t.Hosts {
		sh.HostShard[id] = shardOfPod[h.Pod]
	}
	for id, r := range t.RNICs {
		sh.DevShard[id] = shardOfPod[t.Hosts[r.Host].Pod]
	}
	for id, sw := range t.Switches {
		if s, ok := shardOfPod[sw.Pod]; ok && sw.Pod >= 0 {
			sh.DevShard[id] = s
		} else {
			sh.DevShard[id] = FabricShard
		}
	}

	for _, l := range t.Links {
		if sh.shardOfDev(l.From) != sh.shardOfDev(l.To) {
			sh.CrossEdges = append(sh.CrossEdges, l.ID)
		}
	}

	if nShards >= 2 {
		sh.PairMinLinks = t.pairMinLinks(&sh)
		sh.MinCrossPathLinks = 0
		for a := range sh.PairMinLinks {
			for b, d := range sh.PairMinLinks[a] {
				if a == b || d <= 0 {
					continue
				}
				if sh.MinCrossPathLinks == 0 || d < sh.MinCrossPathLinks {
					sh.MinCrossPathLinks = d
				}
			}
		}
		if sh.MinCrossPathLinks <= 0 {
			return Sharding{}, fmt.Errorf("topo: partition found RNICs of different shards zero links apart")
		}
	}
	return sh, nil
}

func (s *Sharding) shardOfDev(d DeviceID) int {
	if sh, ok := s.DevShard[d]; ok {
		return sh
	}
	return FabricShard
}

// pairMinLinks runs one multi-source BFS per shard, seeded at the shard's
// RNICs, and records the smallest link count at which each BFS first
// reaches an RNIC of every other shard — the full directed PairMinLinks
// matrix. Graph distance lower-bounds the routed (up/down ECMP) path
// length, so every entry is a safe per-pair lookahead even if routing
// takes a longer way around. Entries stay zero for unreachable pairs.
func (t *Topology) pairMinLinks(s *Sharding) [][]int {
	// Adjacency over directed links (every cable contributes both
	// directions, so BFS over out-edges reaches everything).
	adj := make(map[DeviceID][]DeviceID)
	for _, l := range t.Links {
		adj[l.From] = append(adj[l.From], l.To)
	}

	pair := make([][]int, s.Shards)
	for i := range pair {
		pair[i] = make([]int, s.Shards)
	}
	seeds := make(map[int][]DeviceID)
	for id, r := range t.RNICs {
		seeds[s.DevShard[id]] = append(seeds[s.DevShard[id]], r.ID)
	}
	for shard, start := range seeds {
		dist := make(map[DeviceID]int, len(adj))
		queue := make([]DeviceID, 0, len(start))
		for _, id := range start {
			dist[id] = 0
			queue = append(queue, id)
		}
		found := 0
		for len(queue) > 0 && found < s.Shards-1 {
			cur := queue[0]
			queue = queue[1:]
			d := dist[cur]
			for _, nb := range adj[cur] {
				if _, seen := dist[nb]; seen {
					continue
				}
				dist[nb] = d + 1
				if _, isRNIC := t.RNICs[nb]; isRNIC && s.DevShard[nb] != shard {
					if other := s.DevShard[nb]; pair[shard][other] == 0 {
						pair[shard][other] = d + 1
						found++
					}
					continue
				}
				queue = append(queue, nb)
			}
		}
	}
	return pair
}
