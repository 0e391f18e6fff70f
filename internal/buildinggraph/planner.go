package buildinggraph

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"citymesh/internal/runner"
)

// The planner is A* bounded by landmarks (ALT): the distances from a few
// landmark buildings to every building give, by the triangle inequality, a
// lower bound on the cost left from any building to the destination. The
// bound steers the search straight at the destination, so a query settles
// a corridor instead of the whole disc a plain Dijkstra would. It returns
// exactly what Dijkstra returns — the same path and the same cost, bit for
// bit — which reference_test.go checks against the Dijkstra it replaced.

// numLandmarks is how many landmarks Build picks: one per angular sector
// around the city's centre.
const numLandmarks = 16

// landmarks is the planner's lower-bound table.
type landmarks struct {
	// k is how many landmarks there are (fewer than numLandmarks when some
	// sectors hold no connected building).
	k int
	// dist is row-major: dist[v*k+l] is the cost between building v and
	// landmark l, rounded to float32, or 0 where they are disconnected.
	dist []float32
	// slack is subtracted from every bound. float32 rounding moves a table
	// entry by at most 2^-24 of the largest distance, so a difference of
	// two entries is off by less than 2^-22 of it; 2^-21 leaves the bound
	// admissible with room for float64 rounding on the search's own sums.
	slack float64
}

// pickLandmarks chooses, in each of numLandmarks angular sectors around the
// centre of the city's centroids, the building with at least one edge that
// lies farthest from the centre, and runs one full Dijkstra from each (in
// parallel) to fill the table.
func (g *Graph) pickLandmarks() landmarks {
	n := g.NumVertices()
	c := g.centroids.Bounds().Center()
	var best [numLandmarks]int
	var bestD [numLandmarks]float64
	for s := range best {
		best[s] = -1
	}
	for v := 0; v < n; v++ {
		if g.off[v] == g.off[v+1] {
			continue
		}
		p := g.city.Buildings[v].Centroid
		s := int((math.Atan2(p.Y-c.Y, p.X-c.X) + math.Pi) / (2 * math.Pi) * numLandmarks)
		s = min(max(s, 0), numLandmarks-1)
		if d := p.Dist(c); best[s] < 0 || d > bestD[s] {
			best[s], bestD[s] = v, d
		}
	}
	var picked []int
	for _, v := range best {
		if v >= 0 {
			picked = append(picked, v)
		}
	}
	lm := landmarks{k: len(picked), dist: make([]float32, n*len(picked))}
	far := runner.Map(0, lm.k, func(l int) float64 {
		dist := g.dijkstraAll(picked[l])
		maxD := 0.0
		for v, d := range dist {
			if math.IsInf(d, 1) {
				continue
			}
			lm.dist[v*lm.k+l] = float32(d)
			maxD = max(maxD, d)
		}
		return maxD
	})
	lm.slack = math.Ldexp(slices.Max(append(far, 0)), -21)
	return lm
}

// dijkstraAll returns the unpenalized cost from src to every building
// (+Inf where unreachable).
func (g *Graph) dijkstraAll(src int) []float64 {
	n := g.NumVertices()
	q := distHeap{dist: make([]float64, n), pos: make([]int32, n)}
	for i := range q.dist {
		q.dist[i] = math.Inf(1)
		q.pos[i] = -1
	}
	q.dist[src] = 0
	q.fix(int32(src))
	for len(q.heap) > 0 {
		v := q.pop()
		for e := g.off[v]; e < g.off[v+1]; e++ {
			if nd := q.dist[v] + g.w[e]; nd < q.dist[g.to[e]] {
				q.dist[g.to[e]] = nd
				q.fix(g.to[e])
			}
		}
	}
	return q.dist
}

// distHeap is a binary min-heap of buildings on dist that keeps each
// building's index in the heap (pos, -1 before its first push), so a
// cheaper cost moves the building up in place. A full search pops every
// building once instead of the ~3x as many duplicate entries a heap
// without decrease-key would pop.
type distHeap struct {
	dist []float64
	pos  []int32
	heap []int32
}

// fix inserts v, or moves it up after its cost dropped.
func (q *distHeap) fix(v int32) {
	j := int(q.pos[v])
	if j < 0 {
		j = len(q.heap)
		q.heap = append(q.heap, v)
	}
	for j > 0 {
		i := (j - 1) / 2
		if !(q.dist[v] < q.dist[q.heap[i]]) {
			break
		}
		q.heap[j] = q.heap[i]
		q.pos[q.heap[j]] = int32(j)
		j = i
	}
	q.heap[j] = v
	q.pos[v] = int32(j)
}

// pop removes and returns the cheapest building.
func (q *distHeap) pop() int32 {
	top := q.heap[0]
	last := q.heap[len(q.heap)-1]
	q.heap = q.heap[:len(q.heap)-1]
	if len(q.heap) == 0 {
		return top
	}
	j := 0
	for {
		c := 2*j + 1
		if c >= len(q.heap) {
			break
		}
		if c+1 < len(q.heap) && q.dist[q.heap[c+1]] < q.dist[q.heap[c]] {
			c++
		}
		if !(q.dist[q.heap[c]] < q.dist[last]) {
			break
		}
		q.heap[j] = q.heap[c]
		q.pos[q.heap[j]] = int32(j)
		j = c
	}
	q.heap[j] = last
	q.pos[last] = int32(j)
	return top
}

// bound is the landmark lower bound on the cost between v and the building
// whose table row is t.
func (lm *landmarks) bound(v int32, t *[numLandmarks]float32) float64 {
	row := lm.dist[int(v)*lm.k : int(v+1)*lm.k]
	var h float32
	for l, d := range row {
		d -= t[l]
		if d < 0 {
			d = -d
		}
		if d > h {
			h = d
		}
	}
	return max(float64(h)-lm.slack, 0)
}

// VertexPenalty returns a multiplicative cost factor for routing *through*
// building v. Every edge entering v has its weight multiplied by the
// factor, so a penalty of 1 leaves the building unchanged and a large
// penalty makes the planner route around it. A nil VertexPenalty means no
// penalties. This is how route-health memory (internal/health) steers
// planning around suspected-dead regions. A factor below 1, or NaN, fails
// the query with ErrBadPenalty: it could make a route cheaper than the
// map's own cost, which the planner's lower bounds do not allow.
type VertexPenalty func(v int) float64

// ErrBadPenalty is wrapped by the planning calls when a vertex or edge
// penalty factor is below 1 or NaN.
var ErrBadPenalty = errors.New("buildinggraph: penalty factor below 1 or NaN")

// pqItem is a search frontier entry: a building and its key.
type pqItem struct {
	v int32
	f float64
}

// pqPush and pqPop are a typed binary min-heap on f.
func pqPush(h *[]pqItem, it pqItem) {
	s := append(*h, it)
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(s[j].f < s[i].f) {
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
		if j2 := j + 1; j2 < n && s[j2].f < s[j].f {
			j = j2
		}
		if !(s[j].f < s[i].f) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
	return it
}

// node is one building's search state.
type node struct {
	g    float64 // cost of the best route found so far
	h    float64 // landmark bound to the destination
	prev int32   // predecessor on that route, -1 at the source
	// stamp is the search's epoch while the building is open and epoch+1
	// once it is closed; any other value means this search has not reached
	// it, so starting a search clears nothing.
	stamp uint32
}

// edgeFactor is one directed edge's diversity penalty, valid only while
// its stamp equals the scratch's factor epoch.
type edgeFactor struct {
	f     float64
	stamp uint32
}

// searchScratch is the reused per-call planner state.
type searchScratch struct {
	nodes []node
	epoch uint32
	heap  []pqItem
	// fac holds DiversePaths' per-edge penalties, sized on first use.
	fac      []edgeFactor
	facEpoch uint32
}

// getScratch takes a scratch from the free list, or builds one for the
// graph's vertex count.
func (g *Graph) getScratch() *searchScratch {
	if s := g.scratch.Get(); s != nil {
		return s
	}
	return &searchScratch{nodes: make([]node, g.NumVertices())}
}

// begin opens a new search epoch. Epochs advance by two (open, closed);
// only when the counter wraps are the stamps cleared.
func (s *searchScratch) begin() uint32 {
	s.epoch += 2
	if s.epoch == 0 {
		for i := range s.nodes {
			s.nodes[i].stamp = 0
		}
		s.epoch = 2
	}
	s.heap = s.heap[:0]
	return s.epoch
}

// beginFactors starts a fresh set of edge penalties.
func (s *searchScratch) beginFactors(edges int) {
	if s.fac == nil {
		s.fac = make([]edgeFactor, edges)
	}
	s.facEpoch++
	if s.facEpoch == 0 {
		clear(s.fac)
		s.facEpoch = 1
	}
}

// ShortestPath returns the cheapest building route from src to dst
// (inclusive of both endpoints) and its total weight.
func (g *Graph) ShortestPath(src, dst int) ([]int, float64, error) {
	return g.ShortestPathPenalized(src, dst, nil)
}

// ShortestPathPenalized is ShortestPath with per-building cost multipliers
// applied (damage-aware planning). A nil penalty is identical to
// ShortestPath.
func (g *Graph) ShortestPathPenalized(src, dst int, vp VertexPenalty) ([]int, float64, error) {
	sc := g.getScratch()
	defer g.scratch.Put(sc)
	return g.shortestPath(sc, src, dst, false, vp)
}

// shortestPath runs one query on sc. With useFac the per-edge factors of
// sc (DiversePaths' corridor penalties) multiply the edge weights; vp then
// multiplies them again. The two layers compose — a diverse replan under
// health penalties avoids both used corridors and suspected-dead regions.
func (g *Graph) shortestPath(sc *searchScratch, src, dst int, useFac bool, vp VertexPenalty) ([]int, float64, error) {
	n := g.NumVertices()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, 0, fmt.Errorf("buildinggraph: building out of range (%d, %d of %d)", src, dst, n)
	}
	if src == dst {
		return []int{src}, 0, nil
	}
	if g.comp[src] != g.comp[dst] {
		return nil, 0, fmt.Errorf("%w from %d to %d", ErrNoPath, src, dst)
	}
	cost, err := g.search(sc, int32(src), int32(dst), useFac, vp)
	if err != nil {
		return nil, 0, err
	}
	nodes := sc.nodes
	hops := 0
	for v := int32(dst); v >= 0; v = nodes[v].prev {
		hops++
	}
	path := make([]int, hops)
	for v := int32(dst); v >= 0; v = nodes[v].prev {
		hops--
		path[hops] = int(v)
	}
	return path, cost, nil
}

// search is the A* itself. It returns the cost of the cheapest route, with
// each building's prev in sc.nodes set along it.
//
// Two rules make the route Dijkstra's, not merely one as cheap. First, a
// closed building whose cost drops is reopened, so rounding in the bounds
// can cost time but never the optimum. Second, on an equal-cost relaxation
// the predecessor with the smaller cost wins: Dijkstra settles buildings
// in cost order and keeps the first predecessor that reaches the best
// cost, which is the cheapest one, while A* may settle them in another
// order.
func (g *Graph) search(sc *searchScratch, src, dst int32, useFac bool, vp VertexPenalty) (float64, error) {
	ep := sc.begin()
	closed := ep + 1
	lm := &g.lm
	var t [numLandmarks]float32
	copy(t[:], lm.dist[int(dst)*lm.k:int(dst+1)*lm.k])
	nodes := sc.nodes
	nodes[src] = node{g: 0, h: lm.bound(src, &t), prev: -1, stamp: ep}
	pqPush(&sc.heap, pqItem{v: src, f: nodes[src].h})
	for len(sc.heap) > 0 {
		v := pqPop(&sc.heap).v
		nv := &nodes[v]
		if nv.stamp != ep {
			continue // closed since this entry was pushed
		}
		nv.stamp = closed
		if v == dst {
			return nv.g, nil
		}
		gv := nv.g
		for e := g.off[v]; e < g.off[v+1]; e++ {
			u := g.to[e]
			w := g.w[e]
			if useFac {
				if f := sc.fac[e]; f.stamp == sc.facEpoch {
					w *= f.f
				}
			}
			// The vertex penalty is charged on entry, so routing *through*
			// a suspect building pays once per traversal; the destination's
			// own penalty shifts every candidate path equally and cannot
			// change the argmin.
			if vp != nil {
				p := vp(int(u))
				if !(p >= 1) {
					return 0, fmt.Errorf("%w: building %d has factor %v", ErrBadPenalty, u, p)
				}
				w *= p
			}
			nd := gv + w
			nu := &nodes[u]
			switch {
			case nu.stamp != ep && nu.stamp != closed:
				if !(nd < math.Inf(1)) {
					continue
				}
				*nu = node{g: nd, h: lm.bound(u, &t), prev: v, stamp: ep}
			case nd < nu.g:
				nu.g, nu.prev, nu.stamp = nd, v, ep
			case nd == nu.g && nu.prev >= 0 && gv < nodes[nu.prev].g:
				nu.prev = v
				continue
			default:
				continue
			}
			pqPush(&sc.heap, pqItem{v: u, f: nd + nu.h})
		}
	}
	return 0, fmt.Errorf("%w from %d to %d", ErrNoPath, src, dst)
}

// DiversePaths returns up to k spatially diverse paths from src to dst via
// iterative penalization: after each search, every edge of the found path
// has its weight multiplied by penalty, steering later searches around
// already-used corridors. Duplicate paths are dropped, so fewer than k
// paths may return in narrow topologies. The first path is always the true
// shortest path.
func (g *Graph) DiversePaths(src, dst, k int, penalty float64) ([][]int, error) {
	return g.DiversePathsPenalized(src, dst, k, penalty, nil)
}

// DiversePathsPenalized is DiversePaths under per-building cost multipliers
// (see VertexPenalty): every search avoids suspected-dead regions in
// addition to already-used corridors, so the k routes are diverse *and*
// damage-aware. A nil vp is identical to DiversePaths. A penalty of at
// most 1 selects 16; a NaN penalty fails with ErrBadPenalty.
func (g *Graph) DiversePathsPenalized(src, dst, k int, penalty float64, vp VertexPenalty) ([][]int, error) {
	if k <= 0 {
		k = 1
	}
	if math.IsNaN(penalty) {
		return nil, fmt.Errorf("%w: diversity penalty %v", ErrBadPenalty, penalty)
	}
	if penalty <= 1 {
		penalty = 16
	}
	sc := g.getScratch()
	defer g.scratch.Put(sc)
	sc.beginFactors(len(g.to))
	var paths [][]int
	for i := 0; i < k; i++ {
		path, _, err := g.shortestPath(sc, src, dst, true, vp)
		if err != nil {
			if i == 0 || errors.Is(err, ErrBadPenalty) {
				return nil, err
			}
			break
		}
		if !slices.ContainsFunc(paths, func(p []int) bool { return slices.Equal(p, path) }) {
			paths = append(paths, path)
		}
		for j := 0; j+1 < len(path); j++ {
			g.penalize(sc, path[j], path[j+1], penalty)
			g.penalize(sc, path[j+1], path[j], penalty)
		}
	}
	return paths, nil
}

// penalize multiplies the factor of the directed edge a→b by penalty.
func (g *Graph) penalize(sc *searchScratch, a, b int, penalty float64) {
	for e := g.off[a]; e < g.off[a+1]; e++ {
		if int(g.to[e]) != b {
			continue
		}
		if f := &sc.fac[e]; f.stamp == sc.facEpoch {
			f.f *= penalty
		} else {
			*f = edgeFactor{f: penalty, stamp: sc.facEpoch}
		}
		return
	}
}
