package topo

import (
	"fmt"
	"testing"
)

func shardFabric(t *testing.T, pods int) *Topology {
	t.Helper()
	topo, err := BuildClos(ClosConfig{
		Pods:         pods,
		ToRsPerPod:   2,
		AggsPerPod:   2,
		Spines:       2,
		HostsPerToR:  4,
		RNICsPerHost: 2,
	})
	if err != nil {
		t.Fatalf("BuildClos(%d pods): %v", pods, err)
	}
	return topo
}

// TestPartitionCrossEdgeProperty: every link is either intra-shard or
// registered exactly once as a cross-shard edge — across 2/4/8-pod fabrics
// and shard counts at, below, and above the pod count.
func TestPartitionCrossEdgeProperty(t *testing.T) {
	for _, pods := range []int{2, 4, 8} {
		topo := shardFabric(t, pods)
		for _, maxShards := range []int{1, 2, 3, pods, pods + 3} {
			t.Run(fmt.Sprintf("pods=%d/maxShards=%d", pods, maxShards), func(t *testing.T) {
				sh, err := topo.Partition(maxShards)
				if err != nil {
					t.Fatal(err)
				}
				if want := min(maxShards, pods); sh.Shards != want {
					t.Fatalf("Shards = %d, want min(%d,%d) = %d", sh.Shards, maxShards, pods, want)
				}
				cross := make(map[LinkID]int)
				for _, id := range sh.CrossEdges {
					cross[id]++
				}
				for _, l := range topo.Links {
					from, okF := sh.DevShard[l.From]
					to, okT := sh.DevShard[l.To]
					if !okF || !okT {
						t.Fatalf("link %d endpoint missing from DevShard (%s -> %s)", l.ID, l.From, l.To)
					}
					switch {
					case from == to && cross[l.ID] != 0:
						t.Fatalf("intra-shard link %d (%s -> %s) registered as cross edge", l.ID, l.From, l.To)
					case from != to && cross[l.ID] != 1:
						t.Fatalf("cross-shard link %d (%s -> %s) registered %d times, want 1", l.ID, l.From, l.To, cross[l.ID])
					}
				}
				if len(cross) != len(sh.CrossEdges) {
					t.Fatalf("CrossEdges has duplicates: %d unique of %d", len(cross), len(sh.CrossEdges))
				}
				// Hosts share their RNICs' shard.
				for id, r := range topo.RNICs {
					if sh.DevShard[id] != sh.HostShard[r.Host] {
						t.Fatalf("RNIC %s shard %d != host %s shard %d", id, sh.DevShard[id], r.Host, sh.HostShard[r.Host])
					}
				}
			})
		}
	}
}

// TestPartitionLookahead: the hop-by-hop lookahead equals the brute-force
// minimum per-link delay over cross-shard links, and MinCrossPathLinks
// equals the brute-force shortest cross-shard RNIC-to-RNIC graph distance
// (6 in a 3-tier CLOS with one shard per pod).
func TestPartitionLookahead(t *testing.T) {
	for _, pods := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("pods=%d", pods), func(t *testing.T) {
			topo := shardFabric(t, pods)
			sh, err := topo.Partition(pods)
			if err != nil {
				t.Fatal(err)
			}

			// Per-link delays: deterministic pseudo-random per link ID so the
			// minimum is non-trivial.
			perLink := func(id LinkID) int64 { return 500 + int64(id*7919%311) }
			want := int64(0)
			first := true
			for _, l := range topo.Links {
				if sh.DevShard[l.From] == sh.DevShard[l.To] {
					continue
				}
				if d := perLink(l.ID); first || d < want {
					want, first = d, false
				}
			}
			if got := sh.lookahead(perLink); got != want {
				t.Fatalf("lookahead = %d, brute force = %d", got, want)
			}

			if bf := bruteForceCrossDistance(topo, &sh); sh.MinCrossPathLinks != bf {
				t.Fatalf("MinCrossPathLinks = %d, brute force = %d", sh.MinCrossPathLinks, bf)
			}
			if sh.MinCrossPathLinks != 6 {
				t.Fatalf("MinCrossPathLinks = %d in 3-tier CLOS, want 6 (rnic-tor-agg-spine-agg-tor-rnic)", sh.MinCrossPathLinks)
			}
		})
	}
}

// bruteForceCrossDistance BFSes from every RNIC individually — quadratic
// and independent of the production multi-source implementation.
func bruteForceCrossDistance(t *Topology, sh *Sharding) int {
	adj := make(map[DeviceID][]DeviceID)
	for _, l := range t.Links {
		adj[l.From] = append(adj[l.From], l.To)
	}
	best := -1
	for src := range t.RNICs {
		dist := map[DeviceID]int{src: 0}
		queue := []DeviceID{src}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range adj[cur] {
				if _, seen := dist[nb]; seen {
					continue
				}
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
				if _, isRNIC := t.RNICs[nb]; isRNIC && sh.DevShard[nb] != sh.DevShard[src] {
					if best < 0 || dist[nb] < best {
						best = dist[nb]
					}
				}
			}
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// TestPairMinLinks: the directed per-pair distance matrix matches a
// per-RNIC brute force, its off-diagonal minimum is MinCrossPathLinks,
// the diagonal is zero, and pairLinks answers horizon queries with the
// documented bounds behavior.
func TestPairMinLinks(t *testing.T) {
	for _, pods := range []int{2, 4, 8} {
		for _, maxShards := range []int{2, 3, pods} {
			t.Run(fmt.Sprintf("pods=%d/maxShards=%d", pods, maxShards), func(t *testing.T) {
				topo := shardFabric(t, pods)
				sh, err := topo.Partition(maxShards)
				if err != nil {
					t.Fatal(err)
				}
				if len(sh.PairMinLinks) != sh.Shards {
					t.Fatalf("PairMinLinks has %d rows, want %d", len(sh.PairMinLinks), sh.Shards)
				}
				want := bruteForcePairDistance(topo, &sh)
				min := 0
				for a := 0; a < sh.Shards; a++ {
					for b := 0; b < sh.Shards; b++ {
						if got := sh.pairLinks(a, b); got != sh.PairMinLinks[a][b] {
							t.Fatalf("pairLinks(%d,%d) = %d, matrix says %d", a, b, got, sh.PairMinLinks[a][b])
						}
						if a == b {
							if sh.PairMinLinks[a][b] != 0 {
								t.Fatalf("diagonal [%d][%d] = %d, want 0", a, b, sh.PairMinLinks[a][b])
							}
							continue
						}
						if got := sh.PairMinLinks[a][b]; got != want[a][b] {
							t.Fatalf("PairMinLinks[%d][%d] = %d, brute force = %d", a, b, got, want[a][b])
						}
						if d := sh.PairMinLinks[a][b]; d > 0 && (min == 0 || d < min) {
							min = d
						}
					}
				}
				if min != sh.MinCrossPathLinks {
					t.Fatalf("matrix min %d != MinCrossPathLinks %d", min, sh.MinCrossPathLinks)
				}
			})
		}
	}
	// Out-of-range and same-shard queries answer "cannot interact".
	sh, err := shardFabric(t, 4).Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]int{{0, 0}, {-1, 1}, {1, -1}, {0, 99}, {99, 0}} {
		if got := sh.pairLinks(q[0], q[1]); got != 0 {
			t.Fatalf("pairLinks(%d,%d) = %d, want 0", q[0], q[1], got)
		}
	}
}

// bruteForcePairDistance BFSes from every RNIC individually and folds the
// per-shard-pair minimum — quadratic and independent of the production
// multi-source implementation.
func bruteForcePairDistance(t *Topology, sh *Sharding) [][]int {
	adj := make(map[DeviceID][]DeviceID)
	for _, l := range t.Links {
		adj[l.From] = append(adj[l.From], l.To)
	}
	pair := make([][]int, sh.Shards)
	for i := range pair {
		pair[i] = make([]int, sh.Shards)
	}
	for src := range t.RNICs {
		from := sh.DevShard[src]
		dist := map[DeviceID]int{src: 0}
		queue := []DeviceID{src}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range adj[cur] {
				if _, seen := dist[nb]; seen {
					continue
				}
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
				if _, isRNIC := t.RNICs[nb]; isRNIC && sh.DevShard[nb] != from {
					to := sh.DevShard[nb]
					if pair[from][to] == 0 || dist[nb] < pair[from][to] {
						pair[from][to] = dist[nb]
					}
				}
			}
		}
	}
	return pair
}

// TestPartitionGrouping: fewer shards than pods groups pods round-robin and
// stays deterministic; single-shard and rail topologies report Shards < 2
// so callers fall back to the serial engine.
func TestPartitionGrouping(t *testing.T) {
	topo := shardFabric(t, 4)
	sh, err := topo.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Shards != 2 {
		t.Fatalf("Shards = %d, want 2", sh.Shards)
	}
	for id, h := range topo.Hosts {
		if want := h.Pod % 2; sh.HostShard[id] != want {
			t.Fatalf("host %s (pod %d) in shard %d, want %d", id, h.Pod, sh.HostShard[id], want)
		}
	}
	// Same-shard pods (0 and 2) must not contribute cross edges between
	// themselves: every cross edge touches two different shards.
	for _, lid := range sh.CrossEdges {
		l := topo.Links[lid]
		if sh.shardOfDev(l.From) == sh.shardOfDev(l.To) {
			t.Fatalf("cross edge %d joins same shard", lid)
		}
	}

	single, err := shardFabric(t, 1).Partition(8)
	if err != nil {
		t.Fatal(err)
	}
	if single.Shards != 1 || single.MinCrossPathLinks != 0 {
		t.Fatalf("1-pod fabric: Shards=%d MinCrossPathLinks=%d, want 1/0", single.Shards, single.MinCrossPathLinks)
	}

	rail, err := BuildRailOptimized(RailConfig{Hosts: 8, Rails: 2})
	if err != nil {
		t.Skipf("rail build: %v", err)
	}
	rsh, err := rail.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	if rsh.Shards >= 2 && rsh.MinCrossPathLinks <= 0 {
		t.Fatalf("rail partition reports %d shards with no lookahead", rsh.Shards)
	}

	// Determinism: repeated partitions agree exactly.
	again, err := topo.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(again.CrossEdges) != fmt.Sprint(sh.CrossEdges) || again.MinCrossPathLinks != sh.MinCrossPathLinks {
		t.Fatal("Partition is not deterministic across calls")
	}
}
