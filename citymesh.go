// Package citymesh is a from-scratch Go implementation of CityMesh, the
// city-scale decentralized fallback network (DFN) proposed in "The Case for
// Decentralized Fallback Networks" (HotNets '24).
//
// CityMesh routes messages across a city's existing Wi-Fi access points
// with zero routing metadata exchanged between nodes: the sender computes a
// building route over a graph derived from geospatial map data, compresses
// it into waypoint buildings, and every AP makes a purely local rebroadcast
// decision — "am I inside one of the conduits between those waypoints?"
//
// The package re-exports the library's public surface; the implementation
// lives in internal/ packages:
//
//   - internal/osm — OpenStreetMap parsing and footprint extraction
//   - internal/citygen — synthetic city generation (offline evaluation)
//   - internal/buildinggraph — cubed-weight building graph + ALT A* planner
//   - internal/conduit — the paper's route-compression algorithm
//   - internal/packet — the wire format
//   - internal/mesh — AP placement and the realized AP graph
//   - internal/sim — the discrete-event radio simulator
//   - internal/routing — the conduit policy and baselines
//   - internal/postbox — self-certifying names and sealed messages
//   - internal/agent — the per-AP software agent (in-proc and UDP)
//   - internal/experiments — the paper's tables and figures
//
// Quickstart:
//
//	net, err := citymesh.FromPreset("boston", citymesh.DefaultConfig())
//	if err != nil { ... }
//	res, err := net.Send(src, dst, []byte("are you safe?"), citymesh.DefaultSimConfig())
package citymesh

import (
	"io"

	"citymesh/internal/citygen"
	"citymesh/internal/conduit"
	"citymesh/internal/core"
	"citymesh/internal/health"
	"citymesh/internal/internetwork"
	"citymesh/internal/mesh"
	"citymesh/internal/osm"
	"citymesh/internal/packet"
	"citymesh/internal/sim"
)

// Config re-exports the deployment configuration.
type Config = core.Config

// Network re-exports the deployment type.
type Network = core.Network

// SendResult re-exports the end-to-end send outcome.
type SendResult = core.SendResult

// Route re-exports the compressed building route.
type Route = conduit.Route

// Packet re-exports the wire packet.
type Packet = packet.Packet

// SimConfig re-exports the simulator configuration.
type SimConfig = sim.Config

// SimResult re-exports the simulator outcome.
type SimResult = sim.Result

// SimEngine re-exports the reusable simulation engine. Build one per
// (mesh, city, policy) — or take the Network's shared instance via
// Network.Engine() — and call Run repeatedly; warm runs draw pooled
// scratch and allocate nothing.
type SimEngine = sim.Engine

// NodeSet re-exports the dense AP-index bitset the simulator and fault
// injectors use for failure and blackhole sets.
type NodeSet = mesh.NodeSet

// NewNodeSet returns an empty NodeSet with capacity for indices [0, n).
func NewNodeSet(n int) NodeSet { return mesh.NewNodeSet(n) }

// City re-exports the planar city map.
type City = osm.City

// CitySpec re-exports the synthetic city specification.
type CitySpec = citygen.Spec

// DefaultConfig returns the paper's evaluation parameters (50 m range,
// 1 AP / 200 m², conduit width 50 m, cubed edge weights).
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultSimConfig returns the default event-simulation parameters.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// FromPreset builds a network over one of the built-in synthetic cities
// (see PresetNames).
func FromPreset(name string, cfg Config) (*Network, error) { return core.FromPreset(name, cfg) }

// FromSpec builds a network over an explicitly specified synthetic city.
func FromSpec(spec CitySpec, cfg Config) (*Network, error) { return core.FromSpec(spec, cfg) }

// FromOSM builds a network from an OpenStreetMap XML extract — the
// production path for real map data.
func FromOSM(r io.Reader, name string, cfg Config) (*Network, error) {
	return core.FromOSM(r, name, cfg)
}

// PresetNames lists the built-in synthetic cities.
func PresetNames() []string { return citygen.PresetNames() }

// Resilient delivery. A plain Send stops at the first failure; disasters
// are exactly when that is not good enough. SendReliable escalates through
// a ladder of recovery strategies (retry → widened conduit → multipath →
// scoped flood), SendEventually adds partition-aware store-and-heal on
// top, and a HealthMap gives a sender decaying per-building suspicion
// memory so later sends plan around known damage.

// ReliableConfig re-exports the escalation-ladder configuration.
type ReliableConfig = core.ReliableConfig

// ReliableResult re-exports the ladder outcome (winning rung, per-attempt
// record, total broadcast cost).
type ReliableResult = core.ReliableResult

// Rung re-exports the ladder-step identifier carried by ReliableResult.
type Rung = core.Rung

// The ladder's rungs, in escalation order.
const (
	RungDirect    = core.RungDirect
	RungRetry     = core.RungRetry
	RungWiden     = core.RungWiden
	RungMultipath = core.RungMultipath
	RungFlood     = core.RungFlood
)

// NumRungs re-exports the count of real ladder rungs.
const NumRungs = core.NumRungs

// EventualConfig re-exports the store-and-heal scheduler configuration.
type EventualConfig = core.EventualConfig

// EventualResult re-exports the store-and-heal outcome (parked, healed,
// time-to-heal).
type EventualResult = core.EventualResult

// MultipathResult re-exports the k-route diverse-send outcome.
type MultipathResult = core.MultipathResult

// HealthConfig re-exports the route-health memory configuration.
type HealthConfig = health.Config

// HealthMap re-exports the per-sender route-health memory: decaying
// suspicion scores that SendReliable feeds and damage-aware planning
// consults. Wire one into ReliableConfig.Health to route around damage
// learned from earlier sends.
type HealthMap = health.Map

// DefaultReliableConfig returns the evaluation ladder settings (2 retries,
// 2× conduit widening, 3-route multipath, TTL-scoped flood).
func DefaultReliableConfig() ReliableConfig { return core.DefaultReliableConfig() }

// DefaultEventualConfig returns the evaluation healing scheduler (up to 8
// ladder runs, 0.5 s → 30 s capped exponential backoff, park after 2
// exhaustions).
func DefaultEventualConfig() EventualConfig { return core.DefaultEventualConfig() }

// DefaultHealthConfig returns the evaluation route-health memory settings.
func DefaultHealthConfig() HealthConfig { return health.DefaultConfig() }

// NewHealthMap creates a route-health memory; zero config fields use the
// defaults.
func NewHealthMap(cfg HealthConfig) *HealthMap { return health.New(cfg) }

// Internetwork re-exports the two-level federation of regional DFNs:
// level 0 routes inside a member city through conduits, level 1 routes
// between regions over a gateway summary graph with the same Decide
// kernel applied one level up.
type Internetwork = internetwork.Internetwork

// Region re-exports one federation member: a regional network, its
// gateway buildings (in failover priority order) and its anchor position
// on the federation plane.
type Region = internetwork.Region

// RegionID re-exports the federation-unique region name.
type RegionID = internetwork.RegionID

// InterLink re-exports one long-haul link between two regions.
type InterLink = internetwork.Link

// InterAddress re-exports the hierarchical (region, building) address.
type InterAddress = internetwork.Address

// InterSendResult re-exports the outcome of a hierarchical send: the
// traversed region path, every attempted leg, and the failure cause when
// undelivered.
type InterSendResult = internetwork.SendResult

// InterSendOptions re-exports the hierarchical send knobs (seed, per-leg
// ladder override, reroute budget, level-1 conduit width).
type InterSendOptions = internetwork.SendOptions

// NewInternetwork creates an empty federation.
func NewInternetwork() *Internetwork { return internetwork.New() }

// FederationSpec re-exports the synthetic federation generator input
// (member-city count, link topology, seed).
type FederationSpec = citygen.FederationSpec

// Federation re-exports a generated federation: member-city specs plus
// the long-haul link graph.
type Federation = citygen.Federation

// GenerateFederation re-exports the synthetic federation generator.
func GenerateFederation(fs FederationSpec) (*Federation, error) {
	return citygen.GenerateFederation(fs)
}
