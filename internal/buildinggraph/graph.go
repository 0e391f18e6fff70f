// Package buildinggraph builds the map-predicted connectivity graph at the
// heart of CityMesh routing (§3 step 1): vertices are buildings, an edge
// joins two buildings whose footprint gap is small enough that APs inside
// them are likely within radio range, and edge weights are the gap distance
// raised to a configurable exponent (cubed in the paper) so that routes
// prefer many short, reliable hops over few long, marginal ones.
//
// The graph is computed once per city from the map alone — no radio
// measurements — and answers the sender-side planning queries: Dijkstra
// shortest paths, penalty-based diverse multipath, and nearest-building
// lookup for geocast anchoring.
package buildinggraph

import (
	"fmt"
	"math"

	"citymesh/internal/freelist"
	"citymesh/internal/geo"
	"citymesh/internal/osm"
)

// Config parameterizes graph construction.
type Config struct {
	// MaxGap is the maximum footprint-to-footprint gap in meters for a
	// predicted edge. The paper predicts an edge when APs in the two
	// buildings are "likely to be within transmission range"; core derives
	// this from PredictGapFactor * TransmissionRange.
	MaxGap float64
	// WeightExponent is the exponent applied to the gap distance when
	// weighting edges (3 in the paper: cubed weights strongly prefer short
	// hops).
	WeightExponent float64
	// MinWeight floors the gap distance before exponentiation so touching
	// or overlapping footprints (gap 0) still cost a positive amount per
	// hop and Dijkstra keeps hop counts finite-minded.
	MinWeight float64
}

// DefaultConfig matches the paper's evaluation: edges predicted up to
// 0.85 x 50 m of footprint gap, cubed weights.
func DefaultConfig() Config {
	return Config{MaxGap: 42.5, WeightExponent: 3, MinWeight: 1}
}

// edge is one directed half of an undirected building adjacency.
type edge struct {
	to     int32
	weight float64
	gap    float64
}

// Graph is the predicted building-connectivity graph of one city.
type Graph struct {
	city *osm.City
	cfg  Config
	adj  [][]edge
	// centroids indexes building centroids for nearest-building queries.
	centroids *geo.Grid
	numEdges  int
	// scratch keeps per-call Dijkstra state (dist/prev/done arrays and the
	// frontier heap's backing array) so repeated planning queries — the
	// dominant cost of the resilience and multipath sweeps — allocate only
	// the path they return. Safe for concurrent queries: each call takes
	// its own scratch from the free list, which keeps one per query that
	// was ever in flight at once.
	scratch freelist.List[dijkstraScratch]
}

// Build constructs the building graph. Candidate pairs come from a spatial
// grid over centroids (pruned by footprint radii), then the exact
// polygon-to-polygon gap decides each edge.
func Build(city *osm.City, cfg Config) *Graph {
	d := DefaultConfig()
	if cfg.MaxGap <= 0 {
		cfg.MaxGap = d.MaxGap
	}
	if cfg.WeightExponent == 0 {
		cfg.WeightExponent = d.WeightExponent
	}
	if cfg.MinWeight <= 0 {
		cfg.MinWeight = d.MinWeight
	}
	n := city.NumBuildings()
	g := &Graph{
		city: city,
		cfg:  cfg,
		adj:  make([][]edge, n),
	}

	// Footprint "radius": farthest vertex from the centroid. Two buildings
	// can only have gap <= MaxGap when their centroid distance is at most
	// MaxGap + rA + rB.
	radii := make([]float64, n)
	maxRadius := 0.0
	cell := cfg.MaxGap
	if cell <= 0 {
		cell = 50
	}
	g.centroids = geo.NewGrid(cell)
	for i, b := range city.Buildings {
		g.centroids.Insert(b.Centroid)
		r := 0.0
		for _, v := range b.Footprint {
			if d := v.Dist(b.Centroid); d > r {
				r = d
			}
		}
		radii[i] = r
		if r > maxRadius {
			maxRadius = r
		}
	}

	for i := 0; i < n; i++ {
		fpI := city.Buildings[i].Footprint
		searchR := cfg.MaxGap + radii[i] + maxRadius
		g.centroids.WithinRadius(city.Buildings[i].Centroid, searchR, func(j int, _ geo.Point) bool {
			if j <= i {
				return true
			}
			// Cheap centroid prune before the exact polygon gap.
			cd := city.Buildings[i].Centroid.Dist(city.Buildings[j].Centroid)
			if cd > cfg.MaxGap+radii[i]+radii[j] {
				return true
			}
			gap := fpI.GapTo(city.Buildings[j].Footprint)
			if gap > cfg.MaxGap {
				return true
			}
			w := gap
			if w < cfg.MinWeight {
				w = cfg.MinWeight
			}
			w = math.Pow(w, cfg.WeightExponent)
			g.adj[i] = append(g.adj[i], edge{to: int32(j), weight: w, gap: gap})
			g.adj[j] = append(g.adj[j], edge{to: int32(i), weight: w, gap: gap})
			g.numEdges++
			return true
		})
	}
	return g
}

// NumVertices returns the building count.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int { return g.numEdges }

// Degree returns the number of predicted neighbors of building v.
func (g *Graph) Degree(v int) int {
	if v < 0 || v >= len(g.adj) {
		return 0
	}
	return len(g.adj[v])
}

// Neighbors calls fn with each predicted neighbor of v and the gap distance
// of the connecting edge.
func (g *Graph) Neighbors(v int, fn func(w int, gap float64)) {
	if v < 0 || v >= len(g.adj) {
		return
	}
	for _, e := range g.adj[v] {
		fn(int(e.to), e.gap)
	}
}

// ErrNoPath is wrapped by ShortestPath when the pair is disconnected in the
// predicted graph.
var ErrNoPath = fmt.Errorf("buildinggraph: no predicted path")

// VertexPenalty returns a multiplicative cost factor for routing *through*
// building v. Every edge entering v has its weight multiplied by the
// factor, so a penalty of 1 leaves the building unchanged and a large
// penalty makes Dijkstra route around it. A nil VertexPenalty means no
// penalties. This is how route-health memory (internal/health) steers
// planning around suspected-dead regions.
type VertexPenalty func(v int) float64

// ShortestPath runs Dijkstra from src to dst and returns the building index
// sequence (inclusive of both endpoints) and its total weight.
func (g *Graph) ShortestPath(src, dst int) ([]int, float64, error) {
	return g.shortestPathPenalized(src, dst, nil, nil)
}

// ShortestPathPenalized is ShortestPath with per-building cost multipliers
// applied (damage-aware planning). A nil penalty is identical to
// ShortestPath.
func (g *Graph) ShortestPathPenalized(src, dst int, vp VertexPenalty) ([]int, float64, error) {
	return g.shortestPathPenalized(src, dst, nil, vp)
}

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	v    int32
	dist float64
}

// pqPush and pqPop are a typed binary min-heap on dist, replicating
// container/heap's sift order exactly (append+up, swap-root-to-tail+down)
// so pop order — including among equal keys — is unchanged from the old
// interface-based heap while the per-operation boxing allocation is gone.
func pqPush(h *[]pqItem, it pqItem) {
	s := append(*h, it)
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
	*h = s
}

func pqPop(h *[]pqItem) pqItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].dist < s[j].dist {
			j = j2
		}
		if !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
	return it
}

// dijkstraScratch is the reused per-call state of shortestPathPenalized.
type dijkstraScratch struct {
	dist []float64
	prev []int32
	done []bool
	heap []pqItem
}

// getScratch takes a scratch from the free list, or builds one for the
// graph's vertex count, reset for a fresh run.
func (g *Graph) getScratch() *dijkstraScratch {
	s := g.scratch.Get()
	if s == nil {
		n := len(g.adj)
		s = &dijkstraScratch{dist: make([]float64, n), prev: make([]int32, n), done: make([]bool, n)}
	}
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
		s.prev[i] = -1
	}
	clear(s.done)
	s.heap = s.heap[:0]
	return s
}

// edgeKey canonicalizes an undirected edge for the penalty map.
func edgeKey(a, b int) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{int32(a), int32(b)}
}

// shortestPathPenalized is Dijkstra with two optional multiplicative
// penalty layers: per undirected edge (the diverse-multipath mechanism)
// and per vertex (the route-health mechanism). The layers compose — a
// diverse replan under health penalties avoids both used corridors and
// suspected-dead regions.
func (g *Graph) shortestPathPenalized(src, dst int, penalty map[[2]int32]float64, vp VertexPenalty) ([]int, float64, error) {
	n := len(g.adj)
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, 0, fmt.Errorf("buildinggraph: building out of range (%d, %d of %d)", src, dst, n)
	}
	if src == dst {
		return []int{src}, 0, nil
	}
	sc := g.getScratch()
	defer g.scratch.Put(sc)
	dist, prev, done := sc.dist, sc.prev, sc.done
	dist[src] = 0
	pqPush(&sc.heap, pqItem{v: int32(src)})
	for len(sc.heap) > 0 {
		it := pqPop(&sc.heap)
		v := int(it.v)
		if done[v] {
			continue
		}
		done[v] = true
		if v == dst {
			break
		}
		for _, e := range g.adj[v] {
			w := e.weight
			if penalty != nil {
				if f, ok := penalty[edgeKey(v, int(e.to))]; ok {
					w *= f
				}
			}
			// The vertex penalty is charged on entry, so routing *through*
			// a suspect building pays once per traversal; the destination's
			// own penalty shifts every candidate path equally and cannot
			// change the argmin.
			if vp != nil {
				w *= vp(int(e.to))
			}
			if nd := it.dist + w; nd < dist[e.to] {
				dist[e.to] = nd
				prev[e.to] = int32(v)
				pqPush(&sc.heap, pqItem{v: e.to, dist: nd})
			}
		}
	}
	if !done[dst] {
		return nil, 0, fmt.Errorf("%w from %d to %d", ErrNoPath, src, dst)
	}
	var path []int
	for v := int32(dst); v >= 0; v = prev[v] {
		path = append(path, int(v))
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, dist[dst], nil
}

// DiversePaths returns up to k spatially diverse paths from src to dst via
// iterative penalization: after each Dijkstra run, every edge of the found
// path has its weight multiplied by penalty, steering later runs around
// already-used corridors. Duplicate paths are dropped, so fewer than k
// paths may return in narrow topologies. The first path is always the true
// shortest path.
func (g *Graph) DiversePaths(src, dst, k int, penalty float64) ([][]int, error) {
	return g.DiversePathsPenalized(src, dst, k, penalty, nil)
}

// DiversePathsPenalized is DiversePaths under per-building cost multipliers
// (see VertexPenalty): every Dijkstra run avoids suspected-dead regions in
// addition to already-used corridors, so the k routes are diverse *and*
// damage-aware. A nil vp is identical to DiversePaths.
func (g *Graph) DiversePathsPenalized(src, dst, k int, penalty float64, vp VertexPenalty) ([][]int, error) {
	if k <= 0 {
		k = 1
	}
	if penalty <= 1 {
		penalty = 16
	}
	factors := make(map[[2]int32]float64)
	seen := make(map[string]bool)
	var paths [][]int
	for i := 0; i < k; i++ {
		path, _, err := g.shortestPathPenalized(src, dst, factors, vp)
		if err != nil {
			if i == 0 {
				return nil, err
			}
			break
		}
		key := fmt.Sprint(path)
		if !seen[key] {
			seen[key] = true
			paths = append(paths, path)
		}
		for j := 0; j+1 < len(path); j++ {
			ek := edgeKey(path[j], path[j+1])
			if f, ok := factors[ek]; ok {
				factors[ek] = f * penalty
			} else {
				factors[ek] = penalty
			}
		}
	}
	return paths, nil
}

// NearestBuilding returns the building whose centroid is closest to p, or
// -1 for a city with no buildings.
func (g *Graph) NearestBuilding(p geo.Point) int {
	id, _ := g.centroids.Nearest(p, 0)
	return id
}

// Components returns the connected components of the predicted graph,
// largest first, each a list of building indices. The fracture structure
// (rivers, parks) shows up directly here.
func (g *Graph) Components() [][]int {
	n := len(g.adj)
	compOf := make([]int32, n)
	for i := range compOf {
		compOf[i] = -1
	}
	var comps [][]int
	var stack []int32
	for s := 0; s < n; s++ {
		if compOf[s] >= 0 {
			continue
		}
		id := int32(len(comps))
		comp := []int{}
		stack = append(stack[:0], int32(s))
		compOf[s] = id
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, int(v))
			for _, e := range g.adj[v] {
				if compOf[e.to] < 0 {
					compOf[e.to] = id
					stack = append(stack, e.to)
				}
			}
		}
		comps = append(comps, comp)
	}
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && len(comps[j]) > len(comps[j-1]); j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
	return comps
}
