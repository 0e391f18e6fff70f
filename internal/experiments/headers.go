package experiments

import (
	"fmt"
	"strings"

	"citymesh/internal/conduit"
	"citymesh/internal/core"
	"citymesh/internal/packet"
	"citymesh/internal/stats"
)

// HeaderSizeResult reproduces the paper's §4 compressed-header result:
// "in a typical city simulation, the median and 90%ile packet header for
// the compressed source route are 175 and 225 bits".
type HeaderSizeResult struct {
	City            string
	Routes          int
	Waypoints       stats.Summary
	RouteBits       stats.Summary
	FullHeaderBits  stats.Summary
	UncompressedWps stats.Summary // route length before conduit compression
	// PrefixBits is the constant-size hierarchical region prefix an
	// inter-region send would stack on the same header, and
	// HierHeaderBits is the resulting federation header (full header +
	// prefix) — the per-relay cost of addressing this city from another
	// region in a two-level federation.
	PrefixBits     stats.Summary
	HierHeaderBits stats.Summary
}

// HeaderSizes samples random routable pairs in a city and measures the
// encoded route and header sizes. The first `samples` routable pairs in
// index order are kept (see firstN), so output does not depend on
// parallelism.
func HeaderSizes(cityName string, scale float64, seed int64, samples, par int) (HeaderSizeResult, error) {
	n, err := loadCity(cityName, scale, core.DefaultConfig())
	if err != nil {
		return HeaderSizeResult{}, err
	}
	if samples <= 0 {
		samples = 200
	}
	pairs, err := n.RandomPairs(seed, samples*4)
	if err != nil {
		return HeaderSizeResult{}, err
	}
	type outcome struct {
		routeBits, headerBits        float64
		prefixBits                   float64
		waypoints, uncompressedPaths float64
	}
	outs := firstN(par, len(pairs), samples, func(i int) (outcome, bool) {
		p := pairs[i]
		path, err := n.BuildingPath(p[0], p[1])
		if err != nil {
			return outcome{}, false
		}
		r, err := conduit.Compress(n.City, path, n.Cfg.ConduitWidth)
		if err != nil {
			return outcome{}, false
		}
		pkt, err := n.NewPacket(r, nil)
		if err != nil {
			return outcome{}, false
		}
		// The hierarchical prefix this route would carry if it crossed
		// a region boundary on the way here (source region -> this
		// one, destination building addressed region-locally).
		prefix := (&packet.RegionPrefix{
			SrcRegion: 0, DstRegion: 1,
			DstBuilding: uint32(p[1]), TTL: 16,
		}).Bits()
		return outcome{
			routeBits: float64(pkt.Header.RouteBits()), headerBits: float64(pkt.Header.HeaderBits()),
			prefixBits: float64(prefix),
			waypoints:  float64(len(r.Waypoints)), uncompressedPaths: float64(len(path)),
		}, true
	})
	if len(outs) == 0 {
		return HeaderSizeResult{}, fmt.Errorf("experiments: no routable pairs in %s", cityName)
	}
	var routeBits, headerBits, wps, rawWps, prefixBits, hierBits []float64
	for _, o := range outs {
		routeBits = append(routeBits, o.routeBits)
		headerBits = append(headerBits, o.headerBits)
		prefixBits = append(prefixBits, o.prefixBits)
		hierBits = append(hierBits, o.headerBits+o.prefixBits)
		wps = append(wps, o.waypoints)
		rawWps = append(rawWps, o.uncompressedPaths)
	}
	return HeaderSizeResult{
		City:            cityName,
		Routes:          len(outs),
		Waypoints:       stats.Summarize(wps),
		RouteBits:       stats.Summarize(routeBits),
		FullHeaderBits:  stats.Summarize(headerBits),
		UncompressedWps: stats.Summarize(rawWps),
		PrefixBits:      stats.Summarize(prefixBits),
		HierHeaderBits:  stats.Summarize(hierBits),
	}, nil
}

// Text renders the header-size result.
func (r HeaderSizeResult) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Header sizes in %s over %d routes (paper: route p50=175, p90=225 bits)\n", r.City, r.Routes)
	fmt.Fprintf(&sb, "  route buildings (uncompressed): p50=%.0f p90=%.0f\n", r.UncompressedWps.P50, r.UncompressedWps.P90)
	fmt.Fprintf(&sb, "  waypoints after compression:    p50=%.0f p90=%.0f\n", r.Waypoints.P50, r.Waypoints.P90)
	fmt.Fprintf(&sb, "  compressed route bits:          p50=%.0f p90=%.0f\n", r.RouteBits.P50, r.RouteBits.P90)
	fmt.Fprintf(&sb, "  full header bits:               p50=%.0f p90=%.0f\n", r.FullHeaderBits.P50, r.FullHeaderBits.P90)
	fmt.Fprintf(&sb, "  + federation region prefix:     p50=%.0f p90=%.0f (hier header p50=%.0f p90=%.0f)\n",
		r.PrefixBits.P50, r.PrefixBits.P90, r.HierHeaderBits.P50, r.HierHeaderBits.P90)
	return sb.String()
}

// CSV renders the header-size result as a one-row CSV.
func (r HeaderSizeResult) CSV() string {
	var sb strings.Builder
	sb.WriteString("city,routes,uncompressed_p50,uncompressed_p90,waypoints_p50,waypoints_p90," +
		"route_bits_p50,route_bits_p90,header_bits_p50,header_bits_p90," +
		"prefix_bits_p50,prefix_bits_p90,hier_header_bits_p50,hier_header_bits_p90\n")
	fmt.Fprintf(&sb, "%s,%d,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f\n",
		r.City, r.Routes, r.UncompressedWps.P50, r.UncompressedWps.P90,
		r.Waypoints.P50, r.Waypoints.P90, r.RouteBits.P50, r.RouteBits.P90,
		r.FullHeaderBits.P50, r.FullHeaderBits.P90,
		r.PrefixBits.P50, r.PrefixBits.P90, r.HierHeaderBits.P50, r.HierHeaderBits.P90)
	return sb.String()
}
