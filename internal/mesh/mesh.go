// Package mesh realizes the physical AP layer of a city: it places Wi-Fi
// access points inside building footprints at a configurable density,
// connects APs whose distance is below the transmission range into the AP
// graph (the simulator's ground truth, §4), and answers reachability
// queries (union-find) and minimum-transmission-count queries (a
// goal-directed search that returns the BFS hop count).
//
// The AP graph is one flat table, built when the mesh is placed: every AP's
// neighbour row is a window of a single backing array. The union-find,
// MinTransmissions, the simulator's broadcast fan-out and the live testbed's
// hub all read those rows. CityMesh routing *never* consults it — the
// building graph predicts connectivity from the map alone — but the
// evaluation uses it to measure how well the prediction holds.
package mesh

import (
	"fmt"
	"math"
	"math/rand"

	"citymesh/internal/freelist"
	"citymesh/internal/geo"
	"citymesh/internal/osm"
)

// Config parameterizes AP placement and connectivity.
type Config struct {
	// Density is the AP density inside building footprints, in APs per
	// square meter. The paper's evaluation uses 1 AP per 200 m².
	Density float64
	// Range is the symmetric transmission range cutoff in meters (50 m in
	// the paper).
	Range float64
	// Seed drives the deterministic placement RNG.
	Seed int64
	// MinPerBuilding floors the AP count of any building large enough to
	// count at all; the paper's premise is that occupied buildings host at
	// least one AP.
	MinPerBuilding int
}

// DefaultConfig matches the paper: 1 AP / 200 m², 50 m range.
func DefaultConfig() Config {
	return Config{Density: 1.0 / 200.0, Range: 50, Seed: 1, MinPerBuilding: 1}
}

// AP is one placed access point.
type AP struct {
	ID       int
	Pos      geo.Point
	Building int // dense building index
}

// Mesh is the realized AP network of a city.
type Mesh struct {
	City *osm.City
	Cfg  Config
	APs  []AP

	grid *geo.Grid
	// byBuilding lists AP ids per building.
	byBuilding [][]int32
	uf         *unionFind
	// adj[i] lists the APs within range of AP i, in the order of the grid
	// sweep; every row is a window of one backing array (see buildGraph).
	adj [][]int32

	// minTxFree keeps one MinTransmissions scratch per search that was ever
	// in flight at once.
	minTxFree freelist.List[minTxScratch]
}

// Place samples AP locations inside every building footprint via rejection
// sampling in the footprint's bounding box. The expected AP count of a
// building is its area times the density, floored at MinPerBuilding.
func Place(city *osm.City, cfg Config) *Mesh {
	if cfg.Density <= 0 {
		cfg.Density = 1.0 / 200.0
	}
	if cfg.Range <= 0 {
		cfg.Range = 50
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Mesh{
		City:       city,
		Cfg:        cfg,
		grid:       geo.NewGrid(cfg.Range),
		byBuilding: make([][]int32, len(city.Buildings)),
	}
	for bi, b := range city.Buildings {
		area := b.Footprint.Area()
		n := int(math.Floor(area*cfg.Density + rng.Float64()))
		if n < cfg.MinPerBuilding {
			n = cfg.MinPerBuilding
		}
		bounds := b.Footprint.Bounds()
		for k := 0; k < n; k++ {
			p, ok := samplePoint(rng, b.Footprint, bounds)
			if !ok {
				continue
			}
			id := len(m.APs)
			m.APs = append(m.APs, AP{ID: id, Pos: p, Building: bi})
			m.grid.Insert(p)
			m.byBuilding[bi] = append(m.byBuilding[bi], int32(id))
		}
	}
	m.buildGraph()
	return m
}

// samplePoint rejection-samples a point inside pg; it gives up after a
// bounded number of attempts for degenerate footprints.
func samplePoint(rng *rand.Rand, pg geo.Polygon, bounds geo.Rect) (geo.Point, bool) {
	for try := 0; try < 64; try++ {
		p := geo.Pt(
			bounds.Min.X+rng.Float64()*bounds.Width(),
			bounds.Min.Y+rng.Float64()*bounds.Height(),
		)
		if pg.Contains(p) {
			return p, true
		}
	}
	// Degenerate (zero-area) footprint: fall back to its centroid.
	c := pg.Centroid()
	if len(pg) > 0 {
		return c, true
	}
	return geo.Point{}, false
}

// NumAPs returns the number of placed APs.
func (m *Mesh) NumAPs() int { return len(m.APs) }

// Grid exposes the spatial index over AP positions for range queries beyond
// the transmission radius (e.g. the measurement study's beacon detection).
func (m *Mesh) Grid() *geo.Grid { return m.grid }

// APsInBuilding returns the AP ids hosted by the given building.
func (m *Mesh) APsInBuilding(b int) []int32 { return m.byBuilding[b] }

// Neighbors calls fn for every AP within transmission range of AP id
// (excluding itself).
func (m *Mesh) Neighbors(id int, fn func(other int)) {
	for _, j := range m.adj[id] {
		fn(int(j))
	}
}

// Adjacency returns the AP adjacency lists: row i holds the APs within range
// of AP i. The rows share one backing array and must not be modified or
// appended to.
func (m *Mesh) Adjacency() [][]int32 { return m.adj }

// NumLinks returns the number of undirected AP-AP links.
func (m *Mesh) NumLinks() int {
	n := 0
	for _, a := range m.adj {
		n += len(a)
	}
	return n / 2
}

// buildGraph realizes the AP graph from the placed positions: the flat
// adjacency table, then the union-find over its rows. Place and AddAPs call
// it; both are build-time, never concurrent with queries.
//
// The grid is swept twice, once to size the rows and once to fill them, so
// the table is three allocations however many APs there are (a row per AP
// grown by append cost half a million at metro scale). Row i is exactly what
// grid.WithinRadius(pos[i], Range) visits, self excluded, in its order; the
// simulator relies on that to replay the grid query from the row.
func (m *Mesh) buildGraph() {
	n := len(m.APs)
	start := make([]int32, n+1)
	var (
		self int
		fill []int32
	)
	count := func(j int, _ geo.Point) bool {
		if j != self {
			start[self+1]++
		}
		return true
	}
	for self = 0; self < n; self++ {
		m.grid.WithinRadius(m.APs[self].Pos, m.Cfg.Range, count)
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	flat := make([]int32, start[n])
	store := func(j int, _ geo.Point) bool {
		if j != self {
			fill = append(fill, int32(j))
		}
		return true
	}
	m.adj = make([][]int32, n)
	for self = 0; self < n; self++ {
		// A full slice expression caps the row at its own end, so an append
		// by a careless caller copies the row and cannot overwrite the next.
		fill = flat[start[self]:start[self]:start[self+1]]
		m.grid.WithinRadius(m.APs[self].Pos, m.Cfg.Range, store)
		m.adj[self] = fill
	}

	m.uf = newUnionFind(n)
	for i, row := range m.adj {
		for _, j := range row {
			if int(j) > i {
				m.uf.union(i, int(j))
			}
		}
	}
	// Flatten every parent chain now so find() is a pure read afterwards.
	// Path compression during queries would be a write race once parallel
	// sweeps call Reachable concurrently.
	m.uf.flatten()
}

// Reachable reports whether any AP in building a can reach any AP in
// building b across the AP graph. This is the paper's Figure 6
// "reachability" metric.
func (m *Mesh) Reachable(a, b int) bool {
	if a < 0 || b < 0 || a >= len(m.byBuilding) || b >= len(m.byBuilding) {
		return false
	}
	for _, x := range m.byBuilding[a] {
		for _, y := range m.byBuilding[b] {
			if m.uf.find(int(x)) == m.uf.find(int(y)) {
				return true
			}
		}
	}
	return false
}

// ComponentOf returns the AP-graph component id of AP id.
func (m *Mesh) ComponentOf(id int) int { return m.uf.find(id) }

// ErrUnreachable is returned by MinTransmissions when no AP path exists.
var ErrUnreachable = fmt.Errorf("mesh: destination unreachable in AP graph")

// MinTransmissions returns the minimum number of broadcasts needed to carry
// a packet from any AP in building src to any AP in building dst: the BFS
// hop count from the source AP set to the destination AP set. It is the
// denominator of the paper's transmission-overhead metric ("the absolute
// best case").
//
// The value is the plain BFS's; the search is goal-directed so that it
// visits a corridor between the buildings, not the disc a BFS floods. It is
// A* over unit edges with the hop bound
//
//	h(v) = floor(max(0, |v - c| - r) / Range)
//
// where the disc (c, r) covers dst's APs. A hop moves a packet at most Range
// metres, so h never overestimates (admissible) and drops by at most one
// along an edge (consistent); f = g + h is a small integer, so the open list
// is an array of buckets. Source APs that the union-find says cannot reach
// dst are never seeded, which is also the unreachable check. All state lives
// in a scratch reused from a free list, so a warm call allocates nothing.
// Safe for concurrent callers.
func (m *Mesh) MinTransmissions(src, dst int) (int, error) {
	if src == dst {
		return 0, nil
	}
	if src < 0 || dst < 0 || src >= len(m.byBuilding) || dst >= len(m.byBuilding) {
		return 0, fmt.Errorf("mesh: building out of range")
	}
	goals := m.byBuilding[dst]
	if len(goals) == 0 {
		return 0, ErrUnreachable
	}
	sc := m.minTxFree.Get()
	if sc == nil {
		sc = new(minTxScratch)
	}
	defer m.minTxFree.Put(sc)
	sc.begin(len(m.APs))

	var c geo.Point
	for _, d := range goals {
		c = c.Add(m.APs[d].Pos)
	}
	c = c.Scale(1 / float64(len(goals)))
	var r2 float64
	for _, d := range goals {
		r2 = math.Max(r2, m.APs[d].Pos.Dist2(c))
	}
	r, invRange := math.Sqrt(r2), 1/m.Cfg.Range
	bound := func(v int32) int32 {
		if d := math.Sqrt(m.APs[v].Pos.Dist2(c)) - r; d > 0 {
			return int32(d * invRange)
		}
		return 0
	}

	seeded := false
	for _, s := range m.byBuilding[src] {
		for _, d := range goals {
			if m.uf.find(int(s)) == m.uf.find(int(d)) {
				sc.relax(s, 0, bound(s))
				seeded = true
				break
			}
		}
	}
	if !seeded {
		return 0, ErrUnreachable
	}
	for f := 0; f < len(sc.open); f++ {
		// Only a bound that rounding made inconsistent can reopen a node
		// below f; the bucket loop then steps back to it.
		for len(sc.open[f]) > 0 {
			last := len(sc.open[f]) - 1
			v := sc.open[f][last]
			sc.open[f] = sc.open[f][:last]
			st := &sc.node[v]
			if st.closed {
				continue // a stale entry: v was reopened cheaper and expanded since
			}
			st.closed = true
			if m.APs[v].Building == dst {
				return int(st.g), nil
			}
			g := st.g + 1
			for _, w := range m.adj[v] {
				if ws := &sc.node[w]; ws.epoch == sc.epoch && ws.g <= g {
					continue
				}
				if m.APs[w].Building == dst && int(g) <= f {
					// Nothing open is below f and no path is shorter than
					// its f, so this one is a shortest.
					return int(g), nil
				}
				if fw := sc.relax(w, g, bound(w)); fw < f {
					f = fw
				}
			}
		}
	}
	return 0, ErrUnreachable // not reached: a seeded AP shares a component with dst
}

// minTxScratch is the reusable state of one MinTransmissions search. A node's
// entry is valid for the current search only when its epoch matches, so
// starting a search is O(1), not a clear of every AP's distance.
type minTxScratch struct {
	epoch uint32
	node  []minTxNode
	open  [][]int32 // open[f] holds the discovered nodes with g + h == f
}

type minTxNode struct {
	epoch  uint32
	g      int32
	closed bool
}

func (sc *minTxScratch) begin(numAPs int) {
	if len(sc.node) != numAPs {
		sc.node, sc.epoch = make([]minTxNode, numAPs), 0
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: entries of 2^32 searches ago would look current
		clear(sc.node)
		sc.epoch = 1
	}
	for f := range sc.open {
		sc.open[f] = sc.open[f][:0]
	}
}

// relax records that v is reachable in g hops and queues it under
// f = g + h, which it returns.
func (sc *minTxScratch) relax(v, g, h int32) int {
	sc.node[v] = minTxNode{epoch: sc.epoch, g: g}
	f := int(g + h)
	for len(sc.open) <= f {
		sc.open = append(sc.open, nil)
	}
	sc.open[f] = append(sc.open[f], v)
	return f
}

// unionFind is a weighted quick-union. Path compression happens only in
// flatten(), called once at build time; after that find is read-only and
// safe for concurrent callers.
type unionFind struct {
	parent []int32
	size   []int32
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

// flatten points every element directly at its root, so later find calls
// never write to parent.
func (uf *unionFind) flatten() {
	for i := range uf.parent {
		uf.parent[i] = int32(uf.root(i))
	}
}

func (uf *unionFind) root(x int) int {
	p := int32(x)
	for uf.parent[p] != p {
		p = uf.parent[p]
	}
	return int(p)
}

func (uf *unionFind) find(x int) int {
	p := int32(x)
	for uf.parent[p] != p {
		p = uf.parent[p]
	}
	return int(p)
}

func (uf *unionFind) union(a, b int) {
	ra, rb := int32(uf.find(a)), int32(uf.find(b))
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}
