// Package core is CityMesh's top-level API. It wires the substrates
// together: parse or generate a city map, build the building graph
// (map-predicted connectivity), realize the AP mesh (simulated ground
// truth), plan and compress building routes, and send packets through the
// event simulator under the conduit policy.
//
// Downstream users interact with the root citymesh package, which re-exports
// these types.
package core

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"

	"citymesh/internal/buildinggraph"
	"citymesh/internal/citygen"
	"citymesh/internal/conduit"
	"citymesh/internal/freelist"
	"citymesh/internal/mesh"
	"citymesh/internal/osm"
	"citymesh/internal/packet"
	"citymesh/internal/postbox"
	"citymesh/internal/routing"
	"citymesh/internal/sim"
	"citymesh/internal/splitmix"
)

// Config collects the tunable parameters of a CityMesh deployment. The
// defaults reproduce the paper's evaluation settings.
type Config struct {
	// TransmissionRange is the symmetric AP-to-AP range cutoff in meters.
	TransmissionRange float64
	// APDensity is APs per square meter of building footprint.
	APDensity float64
	// APSeed drives deterministic AP placement.
	APSeed int64
	// ConduitWidth is the route compression parameter W in meters.
	ConduitWidth float64
	// WeightExponent is the building-graph edge weight exponent (3 in the
	// paper).
	WeightExponent float64
	// PredictGapFactor scales TransmissionRange into the building-graph
	// edge threshold: two buildings are predicted connected when their
	// footprint gap is at most PredictGapFactor * TransmissionRange. The
	// paper predicts edges "likely to exist" given range and density; the
	// slightly conservative 0.85 default keeps mispredicted hops rare
	// without disconnecting the graph on pairs the mesh can serve.
	PredictGapFactor float64
	// TTL is the packet TTL for sends.
	TTL uint8
}

// minBuildingArea is the footprint area in square meters below which OSM
// extraction drops a building as degenerate.
const minBuildingArea = 20

// DefaultConfig matches §4: 50 m range, 1 AP / 200 m², W = 50 m, cubed
// weights.
func DefaultConfig() Config {
	return Config{
		TransmissionRange: 50,
		APDensity:         1.0 / 200.0,
		APSeed:            1,
		ConduitWidth:      conduit.DefaultWidth,
		WeightExponent:    3,
		PredictGapFactor:  0.85,
		TTL:               packet.DefaultTTL,
	}
}

// Network is a fully constructed CityMesh deployment over one city.
type Network struct {
	City  *osm.City
	Graph *buildinggraph.Graph
	Mesh  *mesh.Mesh
	Cfg   Config

	// msgSeq is atomic so concurrent sends over one Network mint unique
	// message ids without a race. MsgID values never influence simulation
	// outcomes (the RNG comes from sim.Config.Seed, and nothing in a run
	// keys on the id); only a live agent's dedup set reads them, so
	// allocation order doesn't affect determinism.
	msgSeq atomic.Uint64
	// parked holds messages awaiting mesh healing for partitioned
	// destinations (see SendEventually); lazily created by ParkedStore.
	parkedOnce sync.Once
	parked     *postbox.Store
	// engine is the shared per-network simulation engine (see Engine);
	// lazily built so networks that never simulate pay nothing.
	engineOnce sync.Once
	engine     *sim.Engine
	// rngs holds SendReliable's backoff rngs, one per ladder that was ever
	// in flight at once, so a ladder does not allocate a ~5 KB source.
	rngs freelist.List[rand.Rand]
}

// NewNetwork builds the building graph and AP mesh for an already-extracted
// city.
func NewNetwork(city *osm.City, cfg Config) (*Network, error) {
	if city == nil {
		return nil, fmt.Errorf("core: nil city")
	}
	if city.NumBuildings() == 0 {
		return nil, fmt.Errorf("core: city %q has no buildings", city.Name)
	}
	d := DefaultConfig()
	if cfg.TransmissionRange <= 0 {
		cfg.TransmissionRange = d.TransmissionRange
	}
	if cfg.APDensity <= 0 {
		cfg.APDensity = d.APDensity
	}
	if cfg.ConduitWidth <= 0 {
		cfg.ConduitWidth = d.ConduitWidth
	}
	if cfg.WeightExponent == 0 {
		cfg.WeightExponent = d.WeightExponent
	}
	if cfg.TTL == 0 {
		cfg.TTL = d.TTL
	}
	if cfg.PredictGapFactor <= 0 || cfg.PredictGapFactor > 1 {
		cfg.PredictGapFactor = d.PredictGapFactor
	}
	g := buildinggraph.Build(city, buildinggraph.Config{
		MaxGap:         cfg.PredictGapFactor * cfg.TransmissionRange,
		WeightExponent: cfg.WeightExponent,
		MinWeight:      1,
	})
	m := mesh.Place(city, mesh.Config{
		Density:        cfg.APDensity,
		Range:          cfg.TransmissionRange,
		Seed:           cfg.APSeed,
		MinPerBuilding: 1,
	})
	return &Network{City: city, Graph: g, Mesh: m, Cfg: cfg}, nil
}

// FromOSM parses an OSM XML document and builds a network from it — the
// production path for a real map extract.
func FromOSM(r io.Reader, name string, cfg Config) (*Network, error) {
	doc, err := osm.Parse(r)
	if err != nil {
		return nil, err
	}
	return NewNetwork(osm.ExtractCity(name, doc, minBuildingArea), cfg)
}

// FromPreset generates one of the built-in synthetic cities and builds a
// network from it.
func FromPreset(name string, cfg Config) (*Network, error) {
	spec, ok := citygen.Preset(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown preset %q (have %v)", name, citygen.PresetNames())
	}
	return FromSpec(spec, cfg)
}

// FromSpec generates a synthetic city from an explicit spec.
func FromSpec(spec citygen.Spec, cfg Config) (*Network, error) {
	plan, err := citygen.Generate(spec)
	if err != nil {
		return nil, err
	}
	return NewNetwork(PlanToCity(plan), cfg)
}

// PlanToCity converts a generated plan directly into a planar city without
// the OSM XML round trip (which Plan.City performs). Generation benchmarks
// and tests use this fast path.
func PlanToCity(p *citygen.Plan) *osm.City {
	city := &osm.City{Name: p.Spec.Name, Bounds: p.Bounds}
	for i, b := range p.Buildings {
		fp := b.Footprint
		city.Buildings = append(city.Buildings, &osm.Feature{
			ID: osm.ID(i + 1), Kind: osm.KindBuilding,
			Footprint: fp, Centroid: fp.Centroid(), Levels: b.Levels,
		})
	}
	for _, wpg := range p.Water {
		city.Water = append(city.Water, &osm.Feature{Kind: osm.KindWater, Footprint: wpg, Centroid: wpg.Centroid()})
	}
	for _, pg := range p.Parks {
		city.Parks = append(city.Parks, &osm.Feature{Kind: osm.KindPark, Footprint: pg, Centroid: pg.Centroid()})
	}
	for _, pg := range p.Highways {
		city.Highways = append(city.Highways, &osm.Feature{Kind: osm.KindHighway, Footprint: pg, Centroid: pg.Centroid()})
	}
	return city
}

// PlanRoute computes the cubed-weight shortest building route from src to
// dst and compresses it into conduit waypoints (§3 step 2).
func (n *Network) PlanRoute(src, dst int) (conduit.Route, error) {
	_, r, err := n.planPath(src, dst, nil)
	return r, err
}

// planPath runs the planner once and compresses its path, returning both:
// the building path (nil whenever planning or compression failed) and the
// conduit route. A non-nil vp multiplies per-building costs — damage-aware
// planning: with a health.Map's penalty function the route detours around
// suspected-dead regions.
func (n *Network) planPath(src, dst int, vp buildinggraph.VertexPenalty) ([]int, conduit.Route, error) {
	path, _, err := n.Graph.ShortestPathPenalized(src, dst, vp)
	if err != nil {
		return nil, conduit.Route{}, err
	}
	r, err := conduit.Compress(n.City, path, n.Cfg.ConduitWidth)
	if err != nil {
		return nil, conduit.Route{}, err
	}
	return path, r, nil
}

// BuildingPath returns the uncompressed building route (for rendering).
func (n *Network) BuildingPath(src, dst int) ([]int, error) {
	path, _, err := n.Graph.ShortestPath(src, dst)
	return path, err
}

// NewPacket wraps a compressed route and payload into a packet with a fresh
// message ID.
func (n *Network) NewPacket(r conduit.Route, payload []byte) (*packet.Packet, error) {
	if len(r.Waypoints) == 0 {
		return nil, fmt.Errorf("core: empty route")
	}
	wps := make([]uint32, len(r.Waypoints))
	for i, w := range r.Waypoints {
		if w < 0 {
			return nil, fmt.Errorf("core: negative waypoint %d", w)
		}
		wps[i] = uint32(w)
	}
	seq := n.msgSeq.Add(1)
	width := uint8(0)
	if r.Width > 0 && r.Width < 256 {
		width = uint8(r.Width)
	}
	return &packet.Packet{
		Header: packet.Header{
			TTL:       n.Cfg.TTL,
			MsgID:     msgID(n.Cfg.APSeed, seq),
			Width:     width,
			Waypoints: wps,
		},
		Payload: payload,
	}, nil
}

// msgID derives a well-spread deterministic message id.
func msgID(seed int64, seq uint64) uint64 {
	return splitmix.Mix(uint64(seed)*0x9e3779b97f4a7c15 + seq)
}

// SendResult combines the routing plan and the simulation outcome of one
// end-to-end send.
type SendResult struct {
	Route  conduit.Route
	Packet *packet.Packet
	Sim    sim.Result
	// IdealTransmissions is the BFS minimum on the realized AP graph
	// (overhead denominator); -1 when the pair is mesh-unreachable.
	IdealTransmissions int
}

// Overhead returns the transmission overhead versus the ideal unicast
// route, or 0 if unavailable.
func (s SendResult) Overhead() float64 {
	if s.IdealTransmissions <= 0 {
		return 0
	}
	return s.Sim.Overhead(s.IdealTransmissions)
}

// Engine returns the network's shared simulation engine: one
// sim.Engine per Network, built lazily on first use, backed by one
// CityMesh policy. Every ladder rung, experiment sweep, and application
// send over this Network reuses it, so the per-mesh struct-of-arrays
// precomputation and reused per-run scratch are paid once. Safe for
// concurrent use: a run's result does not depend on what else runs.
func (n *Network) Engine() *sim.Engine {
	n.engineOnce.Do(func() {
		n.engine = sim.NewEngine(n.Mesh, n.City, routing.CityMesh{})
	})
	return n.engine
}

// Send plans a route from src to dst, encodes the packet, and simulates its
// propagation under the CityMesh conduit policy.
func (n *Network) Send(src, dst int, payload []byte, simCfg sim.Config) (SendResult, error) {
	r, err := n.PlanRoute(src, dst)
	if err != nil {
		return SendResult{}, err
	}
	pkt, err := n.NewPacket(r, payload)
	if err != nil {
		return SendResult{}, err
	}
	res, err := n.Engine().Run(pkt, simCfg)
	if err != nil {
		return SendResult{}, err
	}
	out := SendResult{Route: r, Packet: pkt, Sim: res, IdealTransmissions: -1}
	if ideal, err := n.Mesh.MinTransmissions(src, dst); err == nil {
		out.IdealTransmissions = ideal
	}
	return out, nil
}

// Reachable reports AP-graph reachability between two buildings (Fig 6's
// reachability metric).
func (n *Network) Reachable(a, b int) bool { return n.Mesh.Reachable(a, b) }

// ErrTooFewBuildings is returned by RandomPairs when the city cannot form
// a single distinct (src, dst) pair.
var ErrTooFewBuildings = errors.New("core: city has fewer than 2 buildings")

// RandomPairs returns count distinct (src, dst) building pairs drawn
// uniformly with the given seed, matching the paper's sampling of 1000
// unique building pairs. A city with fewer than two buildings cannot form
// any pair and returns ErrTooFewBuildings instead of silently coming back
// short. When count exceeds the nb*(nb-1) distinct ordered pairs the city
// offers, the request is capped to that maximum (a documented shortfall,
// not an error); rejection sampling may fall slightly short of a
// near-exhaustive cap, never of a typical request.
func (n *Network) RandomPairs(seed int64, count int) ([][2]int, error) {
	nb := n.City.NumBuildings()
	if nb < 2 {
		return nil, fmt.Errorf("%w (have %d)", ErrTooFewBuildings, nb)
	}
	if count <= 0 {
		return nil, nil
	}
	if max := nb * (nb - 1); count > max {
		count = max
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]int]bool)
	var out [][2]int
	maxAttempts := count * 50
	for len(out) < count && maxAttempts > 0 {
		maxAttempts--
		p := [2]int{rng.Intn(nb), rng.Intn(nb)}
		if p[0] == p[1] || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out, nil
}
