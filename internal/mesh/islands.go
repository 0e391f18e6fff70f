package mesh

import (
	"sort"

	"citymesh/internal/geo"
)

// Island is one connected component of the AP graph, summarized.
type Island struct {
	// Component is the union-find root identifying the island.
	Component int
	// APs is the number of APs in the island.
	APs int
	// Buildings is the number of buildings with at least one AP in the
	// island.
	Buildings int
	// Centroid is the mean AP position.
	Centroid geo.Point
	// Bounds is the bounding box of the island's APs.
	Bounds geo.Rect
}

// Islands returns the AP-graph components sorted by descending AP count.
// Fractured cities — the paper calls out Washington D.C. — show several
// large islands here.
func (m *Mesh) Islands() []Island {
	byComp := make(map[int]*Island)
	seenBuilding := make(map[[2]int]bool)
	for i, ap := range m.APs {
		c := m.uf.find(i)
		isl, ok := byComp[c]
		if !ok {
			isl = &Island{Component: c, Bounds: geo.Rect{Min: ap.Pos, Max: ap.Pos}}
			byComp[c] = isl
		}
		isl.APs++
		isl.Centroid = isl.Centroid.Add(ap.Pos)
		isl.Bounds = isl.Bounds.ExpandToPoint(ap.Pos)
		key := [2]int{c, ap.Building}
		if !seenBuilding[key] {
			seenBuilding[key] = true
			isl.Buildings++
		}
	}
	out := make([]Island, 0, len(byComp))
	for _, isl := range byComp {
		isl.Centroid = isl.Centroid.Scale(1 / float64(isl.APs))
		out = append(out, *isl)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].APs != out[j].APs {
			return out[i].APs > out[j].APs
		}
		return out[i].Component < out[j].Component
	})
	return out
}

// Bridge is a proposed chain of new relay APs connecting two islands — the
// paper's §4 remedy: "the addition of a small number of well-placed APs
// would serve to bridge connectivity between these islands".
type Bridge struct {
	// FromComponent and ToComponent are the island ids being joined.
	FromComponent, ToComponent int
	// From and To are the closest existing AP positions between the
	// islands.
	From, To geo.Point
	// Relays are the new AP positions, spaced just under the transmission
	// range along the From-To segment.
	Relays []geo.Point
}

// PlanBridges proposes bridges that connect every island to the largest
// one, smallest-gap-first, skipping islands below minAPs (noise). The
// number of relays per bridge is ceil(gap/range)-1.
func (m *Mesh) PlanBridges(minAPs int) []Bridge {
	islands := m.Islands()
	if len(islands) < 2 {
		return nil
	}
	main := islands[0]
	var bridges []Bridge
	for _, isl := range islands[1:] {
		if isl.APs < minAPs {
			continue
		}
		from, to, ok := m.closestAPs(main.Component, isl.Component)
		if !ok {
			continue
		}
		bridges = append(bridges, Bridge{
			FromComponent: main.Component,
			ToComponent:   isl.Component,
			From:          from,
			To:            to,
			Relays:        relayChain(from, to, m.Cfg.Range),
		})
	}
	sort.Slice(bridges, func(i, j int) bool {
		return len(bridges[i].Relays) < len(bridges[j].Relays)
	})
	return bridges
}

// closestAPs finds the closest AP pair between two components.
func (m *Mesh) closestAPs(compA, compB int) (geo.Point, geo.Point, bool) {
	var as, bs []geo.Point
	for i, ap := range m.APs {
		switch m.uf.find(i) {
		case compA:
			as = append(as, ap.Pos)
		case compB:
			bs = append(bs, ap.Pos)
		}
	}
	if len(as) == 0 || len(bs) == 0 {
		return geo.Point{}, geo.Point{}, false
	}
	var bestA, bestB geo.Point
	best := -1.0
	for _, a := range as {
		for _, b := range bs {
			d := a.Dist2(b)
			if best < 0 || d < best {
				best = d
				bestA, bestB = a, b
			}
		}
	}
	return bestA, bestB, true
}

// relayChain returns evenly spaced relay positions strictly between from
// and to such that consecutive hops (including to the endpoints) are under
// rng meters.
func relayChain(from, to geo.Point, rng float64) []geo.Point {
	d := from.Dist(to)
	if d <= rng {
		return nil
	}
	hops := int(d/rng*1.05) + 1 // margin keeps every hop strictly < rng
	relays := make([]geo.Point, 0, hops-1)
	for k := 1; k < hops; k++ {
		relays = append(relays, from.Lerp(to, float64(k)/float64(hops)))
	}
	return relays
}

// AddAPs inserts new relay APs (not inside any building; Building = -1) and
// rebuilds the grid, the AP graph and the landmark table. It returns the ids
// of the new APs.
func (m *Mesh) AddAPs(positions []geo.Point) []int {
	ids := make([]int, 0, len(positions))
	for _, p := range positions {
		id := len(m.APs)
		m.APs = append(m.APs, AP{ID: id, Pos: p, Building: -1})
		ids = append(ids, id)
	}
	m.buildGrid()
	m.buildGraph()
	m.buildLandmarks()
	return ids
}
