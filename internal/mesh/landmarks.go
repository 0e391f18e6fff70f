package mesh

import "citymesh/internal/runner"

// MinTransmissions is A* bounded by landmarks (ALT), the idiom of the
// building-graph planner over unit edges: the hop counts from a few
// landmark APs to every AP give, by the triangle inequality, a lower bound
// on the hops left from any AP to the destination's. The geometric bound
// alone lets a search close a disc around the destination as wide as the
// detours are long; the landmark bound knows the detours.
//
// The table is node-major, one byte per (AP, landmark): 8 bytes per AP,
// under a mebibyte at metro scale. Hop counts saturate at maxHops, which
// keeps the bound admissible and consistent: min(d, maxHops) never grows
// a difference of counts and changes by at most one along an edge.

// numLandmarks is how many landmark APs bound MinTransmissions.
const numLandmarks = 8

const (
	// maxHops is where the table's hop counts saturate.
	maxHops = 254
	// noHops marks an AP outside the landmark's component.
	noHops = 255
)

// landmarkRow returns AP v's hop counts to the landmarks.
func (m *Mesh) landmarkRow(v int32) []uint8 {
	return m.landmarks[int(v)*numLandmarks:][:numLandmarks]
}

// buildLandmarks picks the landmarks in the largest AP-graph component and
// fills the table with one BFS from each, in parallel. The first landmark
// is the AP farthest from the centre of the AP bounds; each next one the AP
// farthest from every landmark picked so far. Place and AddAPs call it after
// buildGraph.
func (m *Mesh) buildLandmarks() {
	n := len(m.APs)
	m.landmarks = make([]uint8, n*numLandmarks)
	if n == 0 {
		return
	}
	root := 0
	for i, p := range m.uf.parent {
		if int(p) == i && m.uf.size[i] > m.uf.size[root] {
			root = i
		}
	}
	size := int(m.uf.size[root])

	// near[v] is the squared distance from v to the nearest landmark so far
	// (to the centre before the first); -1 outside the component.
	near := make([]float64, n)
	c := m.grid.Bounds().Center()
	for v := range near {
		near[v] = -1
		if int(m.uf.parent[v]) == root {
			near[v] = m.APs[v].Pos.Dist2(c)
		}
	}
	var picked [numLandmarks]int32
	for l := range picked {
		far, farD := 0, -1.0
		for v, d := range near {
			if d > farD {
				far, farD = v, d
			}
		}
		picked[l] = int32(far)
		p := m.APs[far].Pos
		for v, d := range near {
			if d < 0 {
				continue
			}
			if dp := m.APs[v].Pos.Dist2(p); l == 0 || dp < d {
				near[v] = dp
			}
		}
	}

	// Each BFS fills a column of its own, which a worker's cache holds, and
	// the columns are then interleaved into the node-major table; BFS
	// writing into the shared table directly contended for its cache lines.
	cols := make([]uint8, numLandmarks*n)
	workers := min(runner.Parallelism(0), numLandmarks)
	runner.Map(workers, workers, func(w int) struct{} {
		queue := make([]int32, 0, size)
		for l := w; l < numLandmarks; l += workers {
			m.hopsFrom(picked[l], cols[l*n:][:n], queue)
		}
		return struct{}{}
	})
	for v := 0; v < n; v++ {
		row := m.landmarks[v*numLandmarks:][:numLandmarks]
		for l := range row {
			row[l] = cols[l*n+v]
		}
	}
}

// hopsFrom fills hops with every AP's BFS hop count from src, saturated at
// maxHops, or noHops where src cannot reach it. queue needs room for src's
// component.
func (m *Mesh) hopsFrom(src int32, hops []uint8, queue []int32) {
	for i := range hops {
		hops[i] = noHops
	}
	hops[src] = 0
	queue = append(queue[:0], src)
	for d, head := 1, 0; head < len(queue); d++ {
		h := uint8(min(d, maxHops))
		for end := len(queue); head < end; head++ {
			for _, w := range m.adj[queue[head]] {
				if hops[w] == noHops {
					hops[w] = h
					queue = append(queue, w)
				}
			}
		}
	}
}
