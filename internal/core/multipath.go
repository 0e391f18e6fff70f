package core

import (
	"citymesh/internal/buildinggraph"
	"citymesh/internal/conduit"
	"citymesh/internal/sim"
)

// MultipathResult is the outcome of a k-route redundant send.
type MultipathResult struct {
	// Routes are the diverse compressed routes attempted, in order.
	Routes []conduit.Route
	// Paths are the uncompressed building paths behind Routes. Conduit
	// compression drops interior buildings a straight corridor traverses;
	// health feedback needs them (see Network.observeHealth).
	Paths [][]int
	// Results are the per-route simulation outcomes.
	Results []sim.Result
	// Delivered reports whether any copy arrived.
	Delivered bool
	// TotalBroadcasts sums transmissions across all copies — the price of
	// redundancy.
	TotalBroadcasts int
}

// diverseRoutes plans up to k spatially diverse building paths from src to
// dst (see buildinggraph.DiversePaths) and compresses each into a route,
// returning both. The security rationale (§1): if some conduits traverse
// compromised areas, an alternative that avoids them may still deliver. A
// non-nil vp multiplies per-building costs: the diversity penalties compose
// with the health penalties, so every candidate route is both
// corridor-diverse and damage-aware.
func (n *Network) diverseRoutes(src, dst, k int, vp buildinggraph.VertexPenalty) ([][]int, []conduit.Route, error) {
	paths, err := n.Graph.DiversePathsPenalized(src, dst, k, 16, vp)
	if err != nil {
		return nil, nil, err
	}
	routes := make([]conduit.Route, 0, len(paths))
	for _, p := range paths {
		r, err := conduit.Compress(n.City, p, n.Cfg.ConduitWidth)
		if err != nil {
			return nil, nil, err
		}
		routes = append(routes, r)
	}
	return paths, routes, nil
}

// MultipathSend sends one copy of the payload along each of up to k diverse
// routes and reports combined delivery. Each copy has a distinct message
// ID, so compromised or failed regions that swallow one copy do not
// suppress the others. A non-nil vp plans damage-aware routes (see
// diverseRoutes); nil plans on the plain building graph.
func (n *Network) MultipathSend(src, dst int, payload []byte, k int, simCfg sim.Config, vp buildinggraph.VertexPenalty) (MultipathResult, error) {
	paths, routes, err := n.diverseRoutes(src, dst, k, vp)
	if err != nil {
		return MultipathResult{}, err
	}
	out := MultipathResult{Routes: routes, Paths: paths}
	for _, r := range routes {
		pkt, err := n.NewPacket(r, payload)
		if err != nil {
			return out, err
		}
		res, err := n.Engine().Run(pkt, simCfg)
		if err != nil {
			return out, err
		}
		out.Results = append(out.Results, res)
		out.TotalBroadcasts += res.Broadcasts
		if res.Delivered {
			out.Delivered = true
		}
	}
	return out, nil
}
