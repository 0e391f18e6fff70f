package conduit

import (
	"math/rand"
	"testing"

	"citymesh/internal/buildinggraph"
	"citymesh/internal/citygen"
	"citymesh/internal/geo"
	"citymesh/internal/osm"
)

// lineCity builds buildings at the given centroid points (tiny squares).
func lineCity(pts ...geo.Point) *osm.City {
	city := &osm.City{Name: "line"}
	for i, p := range pts {
		fp := geo.Polygon{
			p.Add(geo.Pt(-4, -4)), p.Add(geo.Pt(4, -4)),
			p.Add(geo.Pt(4, 4)), p.Add(geo.Pt(-4, 4)),
		}
		city.Buildings = append(city.Buildings, &osm.Feature{
			ID: osm.ID(i + 1), Kind: osm.KindBuilding,
			Footprint: fp, Centroid: fp.Centroid(),
		})
	}
	return city
}

func TestCompressStraightLine(t *testing.T) {
	// Ten collinear buildings: one conduit covers everything, so the
	// compressed route is just {first, last}.
	pts := make([]geo.Point, 10)
	route := make([]int, 10)
	for i := range pts {
		pts[i] = geo.Pt(float64(i)*40, 0)
		route[i] = i
	}
	city := lineCity(pts...)
	r, err := Compress(city, route, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Waypoints) != 2 || r.Src() != 0 || r.Dst() != 9 {
		t.Errorf("waypoints = %v", r.Waypoints)
	}
}

func TestCompressRightAngle(t *testing.T) {
	// An L-shaped route needs a waypoint at the corner.
	pts := []geo.Point{
		geo.Pt(0, 0), geo.Pt(100, 0), geo.Pt(200, 0), geo.Pt(300, 0),
		geo.Pt(300, 100), geo.Pt(300, 200), geo.Pt(300, 300),
	}
	route := []int{0, 1, 2, 3, 4, 5, 6}
	city := lineCity(pts...)
	r, err := Compress(city, route, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Waypoints) < 3 {
		t.Fatalf("L route compressed to %v; corner lost", r.Waypoints)
	}
	if r.Src() != 0 || r.Dst() != 6 {
		t.Errorf("endpoints = %d, %d", r.Src(), r.Dst())
	}
	// The corner building (index 3) should be a waypoint.
	foundCorner := false
	for _, w := range r.Waypoints {
		if w == 3 {
			foundCorner = true
		}
	}
	if !foundCorner {
		t.Errorf("corner not a waypoint: %v", r.Waypoints)
	}
}

func TestCompressSingleBuilding(t *testing.T) {
	city := lineCity(geo.Pt(0, 0))
	r, err := Compress(city, []int{0}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Waypoints) != 1 {
		t.Errorf("waypoints = %v", r.Waypoints)
	}
	cs, err := r.Conduits(city)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || !Contains(cs, geo.Pt(10, 10)) {
		t.Error("degenerate conduit should be a disc around the building")
	}
	if Contains(cs, geo.Pt(150, 0)) {
		t.Error("degenerate conduit disc too large")
	}
}

func TestCompressErrors(t *testing.T) {
	city := lineCity(geo.Pt(0, 0))
	if _, err := Compress(city, nil, 50); err == nil {
		t.Error("empty route should error")
	}
	if _, err := Compress(city, []int{5}, 50); err == nil {
		t.Error("out-of-range building should error")
	}
	bad := Route{Waypoints: []int{7}}
	if _, err := bad.Conduits(city); err != nil {
		// waypoint 7 unknown
	} else {
		t.Error("unknown waypoint should error")
	}
	empty := Route{}
	if _, err := empty.Conduits(city); err == nil {
		t.Error("empty route Conduits should error")
	}
}

func TestCompressDefaultWidth(t *testing.T) {
	city := lineCity(geo.Pt(0, 0), geo.Pt(40, 0))
	r, err := Compress(city, []int{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Width != DefaultWidth {
		t.Errorf("width = %v", r.Width)
	}
}

// The paper's core invariant: every building on the original route lies
// inside at least one conduit of the compressed route.
func TestCoverageInvariantOnRealRoutes(t *testing.T) {
	plan, err := citygen.Generate(citygen.SmallTestSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	city := planToCity(plan)
	g := buildinggraph.Build(city, buildinggraph.DefaultConfig())
	rng := rand.New(rand.NewSource(4))
	n := g.NumVertices()
	tested := 0
	for trial := 0; trial < 200 && tested < 60; trial++ {
		a, b := rng.Intn(n), rng.Intn(n)
		path, _, err := g.ShortestPath(a, b)
		if err != nil || len(path) < 3 {
			continue
		}
		tested++
		for _, w := range []float64{30, 50, 80} {
			r, err := Compress(city, path, w)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := r.Conduits(city)
			if err != nil {
				t.Fatal(err)
			}
			for _, bIdx := range path {
				if !Contains(cs, city.Buildings[bIdx].Centroid) {
					t.Fatalf("W=%v: route building %d centroid %v not covered by conduits (route %v, waypoints %v)",
						w, bIdx, city.Buildings[bIdx].Centroid, path, r.Waypoints)
				}
			}
			// Waypoints must be a subsequence of the path.
			pi := 0
			for _, wp := range r.Waypoints {
				for pi < len(path) && path[pi] != wp {
					pi++
				}
				if pi == len(path) {
					t.Fatalf("waypoints %v not a subsequence of path %v", r.Waypoints, path)
				}
			}
			// Compression should not grow the list.
			if len(r.Waypoints) > len(path) {
				t.Fatalf("waypoints %d > path %d", len(r.Waypoints), len(path))
			}
		}
	}
	if tested < 20 {
		t.Fatalf("only %d multi-hop routes tested", tested)
	}
}

// Wider conduits must never need more waypoints than narrower ones on the
// same route (monotonicity of the greedy covering).
func TestWidthMonotonicity(t *testing.T) {
	plan, err := citygen.Generate(citygen.SmallTestSpec(32))
	if err != nil {
		t.Fatal(err)
	}
	city := planToCity(plan)
	g := buildinggraph.Build(city, buildinggraph.DefaultConfig())
	rng := rand.New(rand.NewSource(5))
	n := g.NumVertices()
	for trial := 0; trial < 60; trial++ {
		a, b := rng.Intn(n), rng.Intn(n)
		path, _, err := g.ShortestPath(a, b)
		if err != nil || len(path) < 4 {
			continue
		}
		prev := -1
		for _, w := range []float64{25, 50, 100, 200} {
			r, err := Compress(city, path, w)
			if err != nil {
				t.Fatal(err)
			}
			if prev >= 0 && len(r.Waypoints) > prev {
				t.Fatalf("W=%v produced %d waypoints, narrower width produced %d",
					w, len(r.Waypoints), prev)
			}
			prev = len(r.Waypoints)
		}
	}
}

func TestConduitsMatchWaypoints(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(100, 0), geo.Pt(100, 100)}
	city := lineCity(pts...)
	r := Route{Waypoints: []int{0, 1, 2}, Width: 50}
	cs, err := r.Conduits(city)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("conduits = %d", len(cs))
	}
	if cs[0].A != pts[0] || cs[0].B != pts[1] || cs[1].B != pts[2] {
		t.Error("conduit endpoints do not match waypoint centroids")
	}
	if cs[0].HalfWidth != 50 {
		t.Errorf("half width = %v (W is the lateral tolerance each side)", cs[0].HalfWidth)
	}
}

func TestContains(t *testing.T) {
	city := lineCity(geo.Pt(0, 0), geo.Pt(200, 0))
	r := Route{Waypoints: []int{0, 1}, Width: 50}
	cs, _ := r.Conduits(city)
	if !Contains(cs, geo.Pt(100, 20)) {
		t.Error("point inside conduit rejected")
	}
	if Contains(cs, geo.Pt(100, 120)) {
		t.Error("point outside conduit accepted")
	}
	if Contains(nil, geo.Pt(0, 0)) {
		t.Error("no conduits should contain nothing")
	}
}

// planToCity converts a citygen plan directly to an osm.City.
func planToCity(p *citygen.Plan) *osm.City {
	city := &osm.City{Name: p.Spec.Name, Bounds: p.Bounds}
	for i, b := range p.Buildings {
		city.Buildings = append(city.Buildings, &osm.Feature{
			ID: osm.ID(i + 1), Kind: osm.KindBuilding,
			Footprint: b.Footprint, Centroid: b.Footprint.Centroid(),
		})
	}
	return city
}

func BenchmarkCompress(b *testing.B) {
	plan, err := citygen.Generate(citygen.SmallTestSpec(33))
	if err != nil {
		b.Fatal(err)
	}
	city := planToCity(plan)
	g := buildinggraph.Build(city, buildinggraph.DefaultConfig())
	// Find one long path.
	var path []int
	rng := rand.New(rand.NewSource(6))
	for len(path) < 6 {
		p, _, err := g.ShortestPath(rng.Intn(g.NumVertices()), rng.Intn(g.NumVertices()))
		if err == nil {
			path = p
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Compress(city, path, 50)
	}
}

// TestGreedyNearBruteForceMinimality: the greedy "latest coverable end"
// selection is a heuristic — geometric conduit coverage is not
// suffix-monotone, so greedy can exceed the true minimum. Verify on short
// random routes that greedy (a) always produces a valid cover, (b) never
// beats the exhaustive minimum, and (c) stays within one waypoint of it.
func TestGreedyNearBruteForceMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		// A random wandering route of 6-9 buildings.
		nPts := 6 + rng.Intn(4)
		pts := make([]geo.Point, nPts)
		cur := geo.Pt(0, 0)
		for i := range pts {
			pts[i] = cur
			cur = cur.Add(geo.Pt(30+rng.Float64()*40, (rng.Float64()*2-1)*60))
		}
		city := lineCity(pts...)
		route := make([]int, nPts)
		for i := range route {
			route[i] = i
		}
		const width = 50
		r, err := Compress(city, route, width)
		if err != nil {
			t.Fatal(err)
		}

		wps := r.Waypoints
		if !coversAll(city, route, wps, width) {
			t.Fatalf("greedy produced a non-covering compression: %v", wps)
		}
		best := bruteForceMin(city, route, width)
		if len(wps) < best {
			t.Fatalf("greedy %d waypoints beats exhaustive minimum %d — brute force is wrong",
				len(wps), best)
		}
		if len(wps) > best+1 {
			t.Fatalf("greedy %d waypoints, exhaustive minimum %d (route %v)",
				len(wps), best, pts)
		}
	}
}

// bruteForceMin finds the minimum covering waypoint count by enumerating
// subsets of interior route indices.
func bruteForceMin(city *osm.City, route []int, width float64) int {
	n := len(route)
	interior := n - 2
	for size := 0; size <= interior; size++ {
		// All interior subsets of the given size.
		idx := make([]int, size)
		var try func(pos, start int) bool
		try = func(pos, start int) bool {
			if pos == size {
				wps := []int{route[0]}
				for _, i := range idx {
					wps = append(wps, route[i])
				}
				wps = append(wps, route[n-1])
				return coversAll(city, route, wps, width)
			}
			for i := start; i < n-1; i++ {
				idx[pos] = i
				if try(pos+1, i+1) {
					return true
				}
			}
			return false
		}
		if try(0, 1) {
			return size + 2
		}
	}
	return n
}

// coversAll reports whether the conduits defined by wps cover every route
// building centroid.
func coversAll(city *osm.City, route []int, wps []int, width float64) bool {
	cs, err := (Route{Waypoints: wps, Width: width}).Conduits(city)
	if err != nil {
		return false
	}
	for _, b := range route {
		if !Contains(cs, city.Buildings[b].Centroid) {
			return false
		}
	}
	return true
}
