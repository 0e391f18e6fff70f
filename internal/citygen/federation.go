package citygen

import (
	"fmt"
	"math"
	"math/rand"

	"citymesh/internal/geo"
)

// FedTopology is the shape of a generated federation's long-haul link graph.
type FedTopology int

const (
	// TopoLine chains the cities: i — i+1.
	TopoLine FedTopology = iota
	// TopoRing closes the chain, so one dead link partitions nothing.
	TopoRing
	// TopoHub links every city to city 0.
	TopoHub
	// TopoMesh links each city to its neighbours on the placement grid
	// (right, down and both diagonals): redundant paths everywhere.
	TopoMesh
)

var topoNames = [...]string{"line", "ring", "hub", "mesh"}

// String implements fmt.Stringer with the names ParseTopology accepts.
func (t FedTopology) String() string {
	if t < 0 || int(t) >= len(topoNames) {
		return fmt.Sprintf("topology(%d)", int(t))
	}
	return topoNames[t]
}

// ParseTopology maps a topology name (line, ring, hub, mesh) to its value.
func ParseTopology(name string) (FedTopology, error) {
	for t, n := range topoNames {
		if n == name {
			return FedTopology(t), nil
		}
	}
	return 0, fmt.Errorf("citygen: unknown federation topology %q (have %v)", name, topoNames)
}

// FederationSpec parameterizes a synthetic federation of member cities.
type FederationSpec struct {
	// Cities is the number of member cities, at least 2.
	Cities int
	// Topology shapes the long-haul links; the zero value is a line.
	Topology FedTopology
	// Seed drives member-city generation and placement.
	Seed int64
}

// FedCity is one member of a generated federation.
type FedCity struct {
	// Name is unique within the federation; it serves as the region id.
	Name string
	// Spec generates the member's map (see Generate).
	Spec Spec
	// PosKm anchors the city on the federation plane, in kilometers.
	PosKm geo.Point
}

// FedLink is one undirected long-haul link between members A and B (indices
// into Federation.Cities).
type FedLink struct {
	A, B          int
	LatencyS      float64
	BandwidthMbps float64
}

// Federation is a generated set of member cities and the links joining them.
type Federation struct {
	Cities []FedCity
	Links  []FedLink
}

const (
	// fedPitchKm is the spacing of the placement grid; each city is
	// jittered by up to fedJitterKm off its grid point, so neighbours stay
	// 40-85 km apart, inside the level-1 conduit's reach.
	fedPitchKm  = 60.0
	fedJitterKm = 10.0
	// Long-haul links are modelled as fiber: 5 us per km plus 1 ms of
	// switching, 1 Gbps.
	fedLatencyPerKm  = 5e-6
	fedLatencyFixedS = 1e-3
	fedBandwidthMbps = 1000.0
)

// GenerateFederation lays Cities members out on a near-square grid and
// joins them as the topology says. Members are alike in size (each a
// SmallTestSpec town with its own seed), so per-region quantities do not
// drift as the federation grows. The result is a pure function of the spec.
func GenerateFederation(fs FederationSpec) (*Federation, error) {
	if fs.Cities < 2 {
		return nil, fmt.Errorf("citygen: a federation needs at least 2 cities, got %d", fs.Cities)
	}
	if fs.Topology < 0 || int(fs.Topology) >= len(topoNames) {
		return nil, fmt.Errorf("citygen: unknown federation topology %d", int(fs.Topology))
	}
	rng := rand.New(rand.NewSource(fs.Seed))
	n := fs.Cities
	w := int(math.Ceil(math.Sqrt(float64(n)))) // grid width; city i sits at (i%w, i/w)
	fed := &Federation{Cities: make([]FedCity, n)}
	for i := range fed.Cities {
		spec := SmallTestSpec(fs.Seed*1_000_003 + int64(i) + 1)
		spec.Name = fmt.Sprintf("fed-%03d", i)
		fed.Cities[i] = FedCity{
			Name: spec.Name,
			Spec: spec,
			PosKm: geo.Pt(
				float64(i%w)*fedPitchKm+(2*rng.Float64()-1)*fedJitterKm,
				float64(i/w)*fedPitchKm+(2*rng.Float64()-1)*fedJitterKm,
			),
		}
	}
	link := func(a, b int) {
		km := fed.Cities[a].PosKm.Dist(fed.Cities[b].PosKm)
		fed.Links = append(fed.Links, FedLink{
			A: a, B: b,
			LatencyS:      fedLatencyFixedS + km*fedLatencyPerKm,
			BandwidthMbps: fedBandwidthMbps,
		})
	}
	switch fs.Topology {
	case TopoLine, TopoRing:
		for i := 0; i+1 < n; i++ {
			link(i, i+1)
		}
		if fs.Topology == TopoRing && n > 2 {
			link(n-1, 0)
		}
	case TopoHub:
		for i := 1; i < n; i++ {
			link(0, i)
		}
	case TopoMesh:
		for i := 0; i < n; i++ {
			col := i % w
			if col+1 < w && i+1 < n {
				link(i, i+1)
			}
			if i+w < n {
				link(i, i+w)
			}
			if col+1 < w && i+w+1 < n {
				link(i, i+w+1)
			}
			if col > 0 && i+w-1 < n {
				link(i, i+w-1)
			}
		}
	}
	return fed, nil
}
