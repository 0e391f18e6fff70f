// Package buildinggraph builds the map-predicted connectivity graph at the
// heart of CityMesh routing (§3 step 1): vertices are buildings, an edge
// joins two buildings whose footprint gap is small enough that APs inside
// them are likely within radio range, and edge weights are the gap distance
// raised to a configurable exponent (cubed in the paper) so that routes
// prefer many short, reliable hops over few long, marginal ones.
//
// The graph is computed once per city from the map alone — no radio
// measurements — and answers the sender-side planning queries: shortest
// paths (ALT A*, see planner.go), penalty-based diverse multipath, and
// nearest-building lookup for geocast anchoring.
package buildinggraph

import (
	"fmt"
	"math"

	"citymesh/internal/freelist"
	"citymesh/internal/geo"
	"citymesh/internal/osm"
	"citymesh/internal/runner"
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
	// hop and the planner keeps hop counts finite-minded.
	MinWeight float64
}

// DefaultConfig matches the paper's evaluation: edges predicted up to
// 0.85 x 50 m of footprint gap, cubed weights.
func DefaultConfig() Config {
	return Config{MaxGap: 42.5, WeightExponent: 3, MinWeight: 1}
}

// Graph is the predicted building-connectivity graph of one city.
//
// The adjacency is laid out as CSR: the directed edges leaving building v
// are the indices off[v] to off[v+1] of to (the neighbour), w (the edge
// weight) and gap (the footprint gap). Each undirected edge is stored as
// two directed halves, one in each endpoint's row.
type Graph struct {
	city *osm.City
	cfg  Config
	off  []int32
	to   []int32
	w    []float64
	gap  []float64
	// comp is each building's connected-component id, so a pair in
	// different components is answered without a search.
	comp []int32
	// lm holds the landmark distances that bound the planner's A*.
	lm landmarks
	// centroids indexes building centroids for nearest-building queries.
	centroids *geo.Grid
	numEdges  int
	// scratch keeps per-call search state so repeated planning queries —
	// the dominant cost of the resilience and multipath sweeps — allocate
	// only the path they return. Safe for concurrent queries: each call
	// takes its own scratch from the free list, which keeps one per query
	// that was ever in flight at once.
	scratch freelist.List[searchScratch]
}

// buildChunk is how many buildings one edge-discovery task scans.
const buildChunk = 64

// foundEdge is one edge an edge-discovery task found, to a neighbour of
// higher index.
type foundEdge struct {
	to     int32
	w, gap float64
}

// foundEdges is what one edge-discovery task returns: for each building of
// its chunk, in building order, the edges to neighbours of higher index in
// the order the centroid grid reported them, and how many each has.
type foundEdges struct {
	edges []foundEdge
	cnt   [buildChunk]int32
}

// Build constructs the building graph. Candidate pairs come from a spatial
// grid over centroids (pruned by footprint radii), then the exact
// polygon-to-polygon gap decides each edge. Edge discovery runs in parallel
// over chunks of buildings and is merged in building order, so the graph is
// the same at any GOMAXPROCS. Build also labels components and sets up the
// planner's landmarks.
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
	g := &Graph{city: city, cfg: cfg}

	// Footprint "radius": farthest vertex from the centroid. Two buildings
	// can only have gap <= MaxGap when their centroid distance is at most
	// MaxGap + rA + rB.
	radii := make([]float64, n)
	maxRadius := 0.0
	centroids := make([]geo.Point, n)
	for i, b := range city.Buildings {
		centroids[i] = b.Centroid
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
	g.centroids = geo.NewGrid(cfg.MaxGap, centroids)

	chunks := runner.Map(0, (n+buildChunk-1)/buildChunk, func(c int) foundEdges {
		var f foundEdges
		lo := c * buildChunk
		// One visitor per chunk, reading the building i it scans for, so
		// the grid queries do not allocate a closure each.
		var i int
		visit := func(j int, _ geo.Point) bool {
			if j <= i {
				return true
			}
			// Cheap centroid prune before the exact polygon gap.
			cd := city.Buildings[i].Centroid.Dist(city.Buildings[j].Centroid)
			if cd > cfg.MaxGap+radii[i]+radii[j] {
				return true
			}
			gap := city.Buildings[i].Footprint.GapTo(city.Buildings[j].Footprint)
			if gap > cfg.MaxGap {
				return true
			}
			w := gap
			if w < cfg.MinWeight {
				w = cfg.MinWeight
			}
			f.edges = append(f.edges, foundEdge{to: int32(j), w: math.Pow(w, cfg.WeightExponent), gap: gap})
			f.cnt[i-lo]++
			return true
		}
		for i = lo; i < min(lo+buildChunk, n); i++ {
			g.centroids.WithinRadius(city.Buildings[i].Centroid, cfg.MaxGap+radii[i]+maxRadius, visit)
		}
		return f
	})

	// Row v lists first the neighbours below v, in ascending order, then
	// those above v in the order v's own grid query found them: the order a
	// sequential scan appending each edge to both rows would produce.
	below := make([]int32, n)
	for _, f := range chunks {
		for _, e := range f.edges {
			below[e.to]++
		}
		g.numEdges += len(f.edges)
	}
	g.off = make([]int32, n+1)
	for c, f := range chunks {
		for k, cnt := range f.cnt[:min(buildChunk, n-c*buildChunk)] {
			i := c*buildChunk + k
			g.off[i+1] = g.off[i] + below[i] + cnt
		}
	}
	g.to = make([]int32, 2*g.numEdges)
	g.w = make([]float64, 2*g.numEdges)
	g.gap = make([]float64, 2*g.numEdges)
	next := below // reused as each row's next free slot for a lower neighbour
	copy(next, g.off[:n])
	for c, f := range chunks {
		edges := f.edges
		for k, cnt := range f.cnt[:min(buildChunk, n-c*buildChunk)] {
			i := int32(c*buildChunk + k)
			for up := g.off[i+1] - cnt; up < g.off[i+1]; up++ {
				e := edges[0]
				edges = edges[1:]
				down := next[e.to]
				next[e.to]++
				g.to[up], g.w[up], g.gap[up] = e.to, e.w, e.gap
				g.to[down], g.w[down], g.gap[down] = i, e.w, e.gap
			}
		}
	}

	g.label()
	g.lm = g.pickLandmarks()
	return g
}

// NumVertices returns the building count.
func (g *Graph) NumVertices() int { return len(g.off) - 1 }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int { return g.numEdges }

// Neighbors calls fn with each predicted neighbor of v and the gap distance
// of the connecting edge.
func (g *Graph) Neighbors(v int, fn func(w int, gap float64)) {
	if v < 0 || v >= g.NumVertices() {
		return
	}
	for e := g.off[v]; e < g.off[v+1]; e++ {
		fn(int(g.to[e]), g.gap[e])
	}
}

// ErrNoPath is wrapped by ShortestPath when the pair is disconnected in the
// predicted graph.
var ErrNoPath = fmt.Errorf("buildinggraph: no predicted path")

// NearestBuilding returns the building whose centroid is closest to p, or
// -1 for a city with no buildings.
func (g *Graph) NearestBuilding(p geo.Point) int {
	id, _ := g.centroids.Nearest(p, 0)
	return id
}

// label numbers the connected components in order of their lowest
// building, writing each building's id to g.comp.
func (g *Graph) label() {
	g.comp = make([]int32, g.NumVertices())
	for i := range g.comp {
		g.comp[i] = -1
	}
	var (
		id    int32
		stack []int32
	)
	for s := range g.comp {
		if g.comp[s] >= 0 {
			continue
		}
		stack = append(stack[:0], int32(s))
		g.comp[s] = id
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.to[g.off[v]:g.off[v+1]] {
				if g.comp[w] < 0 {
					g.comp[w] = id
					stack = append(stack, w)
				}
			}
		}
		id++
	}
}
