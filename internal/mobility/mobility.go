// Package mobility models moving participants in a disaster mesh: buses
// and emergency vehicles acting as mobile relays (data mules), and
// pedestrians carrying user endpoints. Everything so far in the evaluation
// was static — static APs, static or pre-scheduled failures — but the
// paper's premise is operating *while* the disaster unfolds, and the
// things that move during a disaster (a bus still running its route, a
// survivor walking out of the flooded zone) are exactly the things that
// can stitch a partitioned mesh back together.
//
// The core type is Track: a waypoint polyline plus a speed, giving a
// deterministic position for every instant. Any polyline will do, so a
// survey route from internal/measure (the paper's §2 wardriving study
// walked and cycled the same kinds of paths) can be replayed as a vehicle
// or pedestrian track unchanged.
//
// A Track is immutable after Compile and safe for concurrent readers,
// which the parallel experiment runner relies on.
package mobility

import (
	"fmt"

	"citymesh/internal/geo"
)

// Track is a deterministic motion plan: a polyline followed at constant
// speed, starting at StartS. Before StartS the mover sits at the first
// waypoint. After the polyline is exhausted a looping track wraps around
// (closing the loop from the last waypoint back to the first); a non-loop
// track parks at its final waypoint.
type Track struct {
	// Waypoints is the polyline, in meters (city frame).
	Waypoints []geo.Point
	// SpeedMps is the constant speed along the polyline. Walking ~1.4,
	// cycling ~4, a city bus ~8.
	SpeedMps float64
	// StartS is the departure time in simulation seconds.
	StartS float64
	// Loop closes the polyline into a circuit (bus route); otherwise the
	// mover parks at the last waypoint (evacuation walk).
	Loop bool

	// cum[i] is the arc length from Waypoints[0] to Waypoints[i];
	// cum[len] additionally carries the closing segment for loops.
	cum []float64
	// total is the traversal length of one pass (loop circumference or
	// open polyline length).
	total float64
}

// Compile validates the track and precomputes arc lengths. It must be
// called once before PosAt; NewTrack and the helper constructors do so.
func (tr *Track) Compile() error {
	if len(tr.Waypoints) == 0 {
		return fmt.Errorf("mobility: track needs at least one waypoint")
	}
	if tr.SpeedMps <= 0 {
		return fmt.Errorf("mobility: non-positive speed %v", tr.SpeedMps)
	}
	n := len(tr.Waypoints)
	tr.cum = make([]float64, n+1)
	for i := 1; i < n; i++ {
		tr.cum[i] = tr.cum[i-1] + tr.Waypoints[i-1].Dist(tr.Waypoints[i])
	}
	tr.cum[n] = tr.cum[n-1]
	if tr.Loop && n > 1 {
		tr.cum[n] += tr.Waypoints[n-1].Dist(tr.Waypoints[0])
	}
	tr.total = tr.cum[n]
	return nil
}

// NewTrack builds and compiles a track.
func NewTrack(waypoints []geo.Point, speedMps, startS float64, loop bool) (*Track, error) {
	tr := &Track{Waypoints: waypoints, SpeedMps: speedMps, StartS: startS, Loop: loop}
	if err := tr.Compile(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Period returns the loop traversal time in seconds, or 0 for open tracks
// and degenerate loops.
func (tr *Track) Period() float64 {
	if !tr.Loop || tr.total <= 0 {
		return 0
	}
	return tr.total / tr.SpeedMps
}

// PosAt returns the mover's position at simulation time t. It implements
// sim.MobilePath.
func (tr *Track) PosAt(t float64) geo.Point {
	n := len(tr.Waypoints)
	if n == 1 || t <= tr.StartS || tr.total <= 0 {
		return tr.Waypoints[0]
	}
	d := (t - tr.StartS) * tr.SpeedMps
	if tr.Loop {
		// Wrap into [0, total): the mover goes around forever.
		k := int(d / tr.total)
		d -= float64(k) * tr.total
	} else if d >= tr.total {
		return tr.Waypoints[n-1]
	}
	// Find the segment holding arc position d (cum is ascending; linear
	// scan is fine for the handful of waypoints real tracks carry, and
	// binary search keeps long survey tracks cheap).
	lo, hi := 0, n
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if tr.cum[mid] <= d {
			lo = mid
		} else {
			hi = mid
		}
	}
	a := tr.Waypoints[lo]
	b := tr.Waypoints[0] // loop-closing segment target
	if lo+1 < n {
		b = tr.Waypoints[lo+1]
	}
	segLen := tr.cum[lo+1] - tr.cum[lo]
	if segLen <= 0 {
		return a
	}
	return a.Lerp(b, (d-tr.cum[lo])/segLen)
}
