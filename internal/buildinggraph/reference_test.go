//go:build !race

package buildinggraph

// This file keeps the building graph as it was before the CSR layout and
// the ALT A* planner: adjacency slices built by one sequential scan, and a
// plain Dijkstra over them. It is the oracle the planner must match bit for
// bit (path, cost and ErrNoPath). Identifiers were renamed, comments
// trimmed and the reused Dijkstra scratch replaced by fresh slices; every
// computation, its order and its tie-breaking are as they were.

import (
	"fmt"
	"math"

	"citymesh/internal/geo"
	"citymesh/internal/osm"
)

// refEdge is one directed half of an undirected building adjacency.
type refEdge struct {
	to     int32
	weight float64
	gap    float64
}

// refGraph is the reference building graph.
type refGraph struct {
	city     *osm.City
	cfg      Config
	adj      [][]refEdge
	numEdges int
}

// refBuild constructs the reference building graph.
func refBuild(city *osm.City, cfg Config) *refGraph {
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
	g := &refGraph{
		city: city,
		cfg:  cfg,
		adj:  make([][]refEdge, n),
	}

	radii := make([]float64, n)
	maxRadius := 0.0
	cell := cfg.MaxGap
	if cell <= 0 {
		cell = 50
	}
	pts := make([]geo.Point, n)
	for i, b := range city.Buildings {
		pts[i] = b.Centroid
	}
	centroids := geo.NewGrid(cell, pts)
	for i, b := range city.Buildings {
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
		centroids.WithinRadius(city.Buildings[i].Centroid, searchR, func(j int, _ geo.Point) bool {
			if j <= i {
				return true
			}
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
			g.adj[i] = append(g.adj[i], refEdge{to: int32(j), weight: w, gap: gap})
			g.adj[j] = append(g.adj[j], refEdge{to: int32(i), weight: w, gap: gap})
			g.numEdges++
			return true
		})
	}
	return g
}

// refPQItem is a Dijkstra frontier entry.
type refPQItem struct {
	v    int32
	dist float64
}

func refPQPush(h *[]refPQItem, it refPQItem) {
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

func refPQPop(h *[]refPQItem) refPQItem {
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

// refEdgeKey canonicalizes an undirected edge for the penalty map.
func refEdgeKey(a, b int) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{int32(a), int32(b)}
}

func (g *refGraph) shortestPath(src, dst int) ([]int, float64, error) {
	return g.shortestPathPenalized(src, dst, nil, nil)
}

// shortestPathPenalized is the reference Dijkstra with its two optional
// multiplicative penalty layers (per undirected edge, per vertex).
func (g *refGraph) shortestPathPenalized(src, dst int, penalty map[[2]int32]float64, vp VertexPenalty) ([]int, float64, error) {
	n := len(g.adj)
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, 0, fmt.Errorf("buildinggraph: building out of range (%d, %d of %d)", src, dst, n)
	}
	if src == dst {
		return []int{src}, 0, nil
	}
	dist := make([]float64, n)
	prev := make([]int32, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	var heap []refPQItem
	dist[src] = 0
	refPQPush(&heap, refPQItem{v: int32(src)})
	for len(heap) > 0 {
		it := refPQPop(&heap)
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
				if f, ok := penalty[refEdgeKey(v, int(e.to))]; ok {
					w *= f
				}
			}
			if vp != nil {
				w *= vp(int(e.to))
			}
			if nd := it.dist + w; nd < dist[e.to] {
				dist[e.to] = nd
				prev[e.to] = int32(v)
				refPQPush(&heap, refPQItem{v: e.to, dist: nd})
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

// diversePathsPenalized is the reference iterative-penalization multipath.
func (g *refGraph) diversePathsPenalized(src, dst, k int, penalty float64, vp VertexPenalty) ([][]int, error) {
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
			ek := refEdgeKey(path[j], path[j+1])
			if f, ok := factors[ek]; ok {
				factors[ek] = f * penalty
			} else {
				factors[ek] = penalty
			}
		}
	}
	return paths, nil
}
