package internetwork

import (
	"container/heap"
	"fmt"

	"citymesh/internal/splitmix"
)

// The region-summary graph: level 1 of the hierarchy. Each region is one
// node (its dense index), each Link one undirected edge. The summary is
// all a gateway needs to route between regions — O(regions + links) bytes,
// regardless of how many buildings or APs each member city contains — and
// ordinary APs do not hold it at all (see the *StateBytes accounting at
// the bottom of this file).

// halfLink is one direction of a Link in the adjacency: the peer's region
// index plus the index into the link table. Down state and cost are read
// through the link table at search time, so failure injection (FailLink)
// never invalidates the adjacency.
type halfLink struct {
	peer, link int
}

// summary returns the level-1 adjacency, rebuilding it after topology
// changes (AddRegion/AddLink).
func (in *Internetwork) summary() [][]halfLink {
	if !in.adjDirty && in.adj != nil {
		return in.adj
	}
	adj := make([][]halfLink, len(in.order))
	for li, l := range in.links {
		a, b := in.index[l.A], in.index[l.B]
		adj[a] = append(adj[a], halfLink{peer: b, link: li})
		adj[b] = append(adj[b], halfLink{peer: a, link: li})
	}
	in.adj = adj
	in.adjDirty = false
	return adj
}

// linkCost is the level-1 edge weight: propagation latency plus payload
// transfer time at the link's bandwidth.
func linkCost(l Link, payloadBytes int) float64 {
	c := l.LatencySeconds
	if l.BandwidthMbps > 0 && payloadBytes > 0 {
		c += float64(8*payloadBytes) / (l.BandwidthMbps * 1e6)
	}
	return c
}

// RegionPath returns the minimum-cost sequence of regions from a to b over
// non-failed links, inclusive of both endpoints, plus the total link cost.
// Equal-cost ties break deterministically under seed 0; use
// RegionPathSeeded to vary the tiebreak.
func (in *Internetwork) RegionPath(a, b RegionID) ([]RegionID, float64, error) {
	return in.RegionPathSeeded(a, b, 0)
}

// RegionPathSeeded is RegionPath with an explicit tiebreak seed: when two
// region paths cost exactly the same, the seed picks which one wins, and
// the same seed always picks the same path. Distinct seeds may legally
// pick distinct equal-cost paths.
func (in *Internetwork) RegionPathSeeded(a, b RegionID, seed int64) ([]RegionID, float64, error) {
	ai, ok := in.index[a]
	if !ok {
		return nil, 0, fmt.Errorf("internetwork: unknown region %q", a)
	}
	bi, ok := in.index[b]
	if !ok {
		return nil, 0, fmt.Errorf("internetwork: unknown region %q", b)
	}
	regions, _, cost, ok := in.pathFrom(ai, bi, seed, 0, nil, nil)
	if !ok {
		return nil, 0, fmt.Errorf("internetwork: no link path %q -> %q", a, b)
	}
	ids := make([]RegionID, len(regions))
	for i, r := range regions {
		ids[i] = in.order[r]
	}
	return ids, cost, nil
}

// pathFrom runs the seeded level-1 Dijkstra from region index src to dst.
// banned regions are never entered (src excepted); a non-nil allowed set
// restricts candidates to it (the conduit-of-conduits constraint — src and
// dst are always implicitly allowed). Returns the region index path, the
// parallel link indices (links[i] connects regions[i] to regions[i+1]),
// and the total cost.
func (in *Internetwork) pathFrom(src, dst int, seed int64, payloadBytes int, banned, allowed map[int]bool) (regions, links []int, cost float64, ok bool) {
	n := len(in.order)
	if src < 0 || src >= n || dst < 0 || dst >= n || banned[dst] {
		return nil, nil, 0, false
	}
	if src == dst {
		return []int{src}, nil, 0, true
	}
	adj := in.summary()

	// Per-node tiebreak hashes under the seed: among equal-cost frontier
	// entries and equal-cost predecessors, the smaller hash wins. The hash
	// depends on (seed, node) only, so a fixed seed fixes the selection.
	tie := make([]uint64, n)
	for i := range tie {
		tie[i] = tieHash(seed, i)
	}
	const eps = 0 // exact ties only: costs are sums of identical literals
	dist := make([]float64, n)
	prevR := make([]int, n)
	prevL := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = -1
		prevR[i] = -1
		prevL[i] = -1
	}
	dist[src] = 0
	pq := &summaryHeap{{idx: src, d: 0, tie: tie[src]}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(summaryItem)
		if done[it.idx] {
			continue
		}
		done[it.idx] = true
		if it.idx == dst {
			break
		}
		for _, h := range adj[it.idx] {
			l := &in.links[h.link]
			if l.Down || done[h.peer] {
				continue
			}
			if banned[h.peer] {
				continue
			}
			if allowed != nil && h.peer != dst && h.peer != src && !allowed[h.peer] {
				continue
			}
			nd := it.d + linkCost(*l, payloadBytes)
			switch cur := dist[h.peer]; {
			case cur < 0 || nd < cur-eps:
				dist[h.peer] = nd
				prevR[h.peer] = it.idx
				prevL[h.peer] = h.link
				heap.Push(pq, summaryItem{idx: h.peer, d: nd, tie: tie[h.peer]})
			case nd == cur && prevR[h.peer] >= 0 && tie[it.idx] < tie[prevR[h.peer]]:
				// Equal cost: the seeded hash of the predecessor decides.
				prevR[h.peer] = it.idx
				prevL[h.peer] = h.link
			}
		}
	}
	if !done[dst] {
		return nil, nil, 0, false
	}
	for cur := dst; cur != src; cur = prevR[cur] {
		regions = append(regions, cur)
		links = append(links, prevL[cur])
	}
	regions = append(regions, src)
	reverseInts(regions)
	reverseInts(links)
	return regions, links, dist[dst], true
}

func reverseInts(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// tieHash is the SplitMix64 finalizer over (seed, node).
func tieHash(seed int64, node int) uint64 {
	return splitmix.Mix(uint64(seed) + (uint64(node)+1)*0x9e3779b97f4a7c15)
}

type summaryItem struct {
	idx int
	d   float64
	tie uint64
}

type summaryHeap []summaryItem

func (h summaryHeap) Len() int { return len(h) }
func (h summaryHeap) Less(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
	}
	if h[i].tie != h[j].tie {
		return h[i].tie < h[j].tie
	}
	return h[i].idx < h[j].idx
}
func (h summaryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *summaryHeap) Push(x any)   { *h = append(*h, x.(summaryItem)) }
func (h *summaryHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Routing-state accounting — the hierarchy's memory argument, measured by
// the `federation` experiment. Sizes are the serialized bytes of each
// logical table, using fixed-width entries.
const (
	// bytesPerRegionEntry: a summary-graph node — dense index (4), anchor
	// position (2×8), primary gateway (4).
	bytesPerRegionEntry = 24
	// bytesPerLinkEntry: a summary-graph edge — endpoints (2×4), latency
	// (8), bandwidth (8), state byte, padded.
	bytesPerLinkEntry = 32
	// bytesPerGatewayEntry: one gateway building index plus liveness, in
	// the per-AP gateway list.
	bytesPerGatewayEntry = 8
	// bytesPerFlatEntry: one next-hop entry of the flat baseline, per
	// destination building.
	bytesPerFlatEntry = 8
)

// PerAPL1StateBytes is the level-1 routing state an *ordinary* AP in the
// given region must hold: its own region index plus its region's gateway
// list. It does not grow with the federation — that is the point of the
// hierarchy.
func (in *Internetwork) PerAPL1StateBytes(id RegionID) int {
	r, ok := in.regions[id]
	if !ok {
		return 0
	}
	return 4 + bytesPerGatewayEntry*len(r.Gateways)
}

// GatewayStateBytes is the region-summary graph a gateway building holds:
// O(regions + links), independent of member-city sizes. Only gateways pay
// this; there are a handful per region.
func (in *Internetwork) GatewayStateBytes() int {
	return bytesPerRegionEntry*len(in.order) + bytesPerLinkEntry*len(in.links)
}

// FlatPerAPStateBytes is the counterfactual this package replaced: a flat
// federation where every AP keeps next-hop state per destination building
// across all member cities. It grows linearly with total federation size.
func (in *Internetwork) FlatPerAPStateBytes() int {
	total := 0
	for _, id := range in.order {
		total += in.regions[id].Net.City.NumBuildings()
	}
	return bytesPerFlatEntry * total
}
