package osm

import (
	"citymesh/internal/geo"
)

// FeatureKind classifies an extracted map feature by how CityMesh treats it.
type FeatureKind int

const (
	// KindBuilding is a building footprint: an AP host and a building-graph
	// vertex.
	KindBuilding FeatureKind = iota
	// KindWater is a river/lake polygon: a connectivity gap.
	KindWater
	// KindPark is a park/green polygon: typically AP-free.
	KindPark
	// KindHighway is a wide road corridor polygon: a potential gap.
	KindHighway
)

// String implements fmt.Stringer.
func (k FeatureKind) String() string {
	switch k {
	case KindBuilding:
		return "building"
	case KindWater:
		return "water"
	case KindPark:
		return "park"
	case KindHighway:
		return "highway"
	default:
		return "unknown"
	}
}

// Feature is a typed planar footprint extracted from an OSM document.
type Feature struct {
	ID        ID
	Kind      FeatureKind
	Footprint geo.Polygon
	Centroid  geo.Point
	Name      string
	Levels    int // building:levels when tagged, else 0
}

// City is the planar form of an OSM extract: everything CityMesh routing
// needs, with buildings indexed densely so building IDs can be encoded
// compactly in packet headers.
type City struct {
	Name       string
	Projection *geo.Projection
	Bounds     geo.Rect

	// Buildings is indexed by dense building index (0..len-1); a building's
	// index is its CityMesh building ID.
	Buildings []*Feature
	Water     []*Feature
	Parks     []*Feature
	Highways  []*Feature
}

// NumBuildings returns the number of buildings in the city.
func (c *City) NumBuildings() int { return len(c.Buildings) }

// Centroid returns the centroid of the building with dense index b. With
// NumBuildings it makes *City satisfy the map-view contract the forwarding
// kernel (internal/fwd) and conduit reconstruction consume: an AP's
// rebroadcast decision needs nothing from the map beyond building count
// and centroids.
func (c *City) Centroid(b int) geo.Point { return c.Buildings[b].Centroid }

// classify returns the feature kind for a way's tag set, and whether the
// way describes a feature CityMesh cares about.
func classify(t Tags) (FeatureKind, bool) {
	switch {
	case t.Has("building"):
		return KindBuilding, true
	case t.Get("natural") == "water", t.Has("waterway"), t.Get("landuse") == "reservoir":
		return KindWater, true
	case t.Get("leisure") == "park", t.Get("leisure") == "garden",
		t.Get("landuse") == "grass", t.Get("landuse") == "recreation_ground":
		return KindPark, true
	case t.Get("highway") == "motorway", t.Get("highway") == "trunk",
		t.Get("area:highway") != "":
		return KindHighway, true
	default:
		return 0, false
	}
}

// ExtractCity projects doc into the plane and extracts all typed features.
// Buildings with degenerate footprints (area below minArea square meters)
// are dropped, matching the paper's use of footprints as AP containers: a
// footprint too small to hold an AP cannot route.
func ExtractCity(name string, doc *Document, minArea float64) *City {
	proj := geo.NewProjection(doc.Center())
	city := &City{
		Name:       name,
		Projection: proj,
	}

	first := true
	for _, id := range doc.SortedWayIDs() {
		w := doc.Ways[id]
		kind, ok := classify(w.Tags)
		if !ok {
			continue
		}
		pg := doc.WayPolygon(w, proj)
		if pg == nil {
			// Open ways can still matter for rivers drawn as waterway lines;
			// buffer them into thin polygons.
			if kind == KindWater || kind == KindHighway {
				line := doc.WayLine(w, proj)
				pg = bufferLine(line, corridorHalfWidth(kind, w.Tags))
			}
			if pg == nil {
				continue
			}
		}
		if kind == KindBuilding && pg.Area() < minArea {
			continue
		}
		f := &Feature{
			ID:        w.ID,
			Kind:      kind,
			Footprint: pg,
			Centroid:  pg.Centroid(),
			Name:      w.Tags.Get("name"),
			Levels:    atoiDefault(w.Tags.Get("building:levels"), 0),
		}
		switch kind {
		case KindBuilding:
			city.Buildings = append(city.Buildings, f)
		case KindWater:
			city.Water = append(city.Water, f)
		case KindPark:
			city.Parks = append(city.Parks, f)
		case KindHighway:
			city.Highways = append(city.Highways, f)
		}
		b := pg.Bounds()
		if first {
			city.Bounds = b
			first = false
		} else {
			city.Bounds = city.Bounds.Union(b)
		}
	}
	return city
}

// corridorHalfWidth returns half the corridor width for a linear feature.
func corridorHalfWidth(kind FeatureKind, t Tags) float64 {
	if kind == KindHighway {
		return 15 // motorway corridor ~30 m
	}
	// waterway: rivers wider than streams
	if t.Get("waterway") == "river" {
		return 40
	}
	return 10
}

// bufferLine turns a polyline into a corridor polygon of the given
// half-width by offsetting each segment perpendicular on both sides. It is
// a simple miter-free buffer sufficient for gap modelling.
func bufferLine(line []geo.Point, halfWidth float64) geo.Polygon {
	if len(line) < 2 || halfWidth <= 0 {
		return nil
	}
	left := make([]geo.Point, 0, len(line))
	right := make([]geo.Point, 0, len(line))
	for i := 0; i < len(line); i++ {
		var dir geo.Point
		switch {
		case i == 0:
			dir = line[1].Sub(line[0]).Unit()
		case i == len(line)-1:
			dir = line[i].Sub(line[i-1]).Unit()
		default:
			dir = line[i+1].Sub(line[i-1]).Unit()
		}
		off := dir.Perp().Scale(halfWidth)
		left = append(left, line[i].Add(off))
		right = append(right, line[i].Sub(off))
	}
	pg := make(geo.Polygon, 0, 2*len(line))
	pg = append(pg, left...)
	for i := len(right) - 1; i >= 0; i-- {
		pg = append(pg, right[i])
	}
	return pg
}

func atoiDefault(s string, def int) int {
	if s == "" {
		return def
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return def
		}
		n = n*10 + int(c-'0')
	}
	return n
}
