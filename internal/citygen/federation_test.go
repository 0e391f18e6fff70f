package citygen

import (
	"reflect"
	"testing"
)

// linkDegrees returns each city's link count and whether the link graph is
// connected.
func linkDegrees(fed *Federation) (deg []int, connected bool) {
	n := len(fed.Cities)
	deg = make([]int, n)
	adj := make([][]int, n)
	for _, l := range fed.Links {
		deg[l.A]++
		deg[l.B]++
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	seen := make([]bool, n)
	seen[0] = true
	stack, reached := []int{0}, 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				reached++
				stack = append(stack, w)
			}
		}
	}
	return deg, reached == n
}

func TestGenerateFederationTopologies(t *testing.T) {
	for _, n := range []int{2, 3, 7, 10, 25} {
		for topo := TopoLine; topo <= TopoMesh; topo++ {
			fed, err := GenerateFederation(FederationSpec{Cities: n, Topology: topo, Seed: 3})
			if err != nil {
				t.Fatalf("%v/%d: %v", topo, n, err)
			}
			if len(fed.Cities) != n {
				t.Fatalf("%v/%d: %d cities", topo, n, len(fed.Cities))
			}
			deg, connected := linkDegrees(fed)
			if !connected {
				t.Errorf("%v/%d: link graph is not connected", topo, n)
			}
			wantLinks := map[FedTopology]int{TopoLine: n - 1, TopoRing: n, TopoHub: n - 1}
			if n == 2 {
				wantLinks[TopoRing] = 1 // a second 0-1 link would be a duplicate
			}
			if want, fixed := wantLinks[topo]; fixed && len(fed.Links) != want {
				t.Errorf("%v/%d: %d links, want %d", topo, n, len(fed.Links), want)
			}
			if topo == TopoHub && deg[0] != n-1 {
				t.Errorf("hub/%d: centre has %d links", n, deg[0])
			}
			if topo == TopoMesh && n >= 7 {
				// Redundancy is the point of the mesh: no city hangs by one link.
				for i, d := range deg {
					if d < 2 {
						t.Errorf("mesh/%d: city %d has %d link(s)", n, i, d)
					}
				}
			}
			names := map[string]bool{}
			pairs := map[[2]int]bool{}
			for _, c := range fed.Cities {
				if names[c.Name] || c.Name != c.Spec.Name {
					t.Errorf("%v/%d: bad or repeated city name %q (spec %q)", topo, n, c.Name, c.Spec.Name)
				}
				names[c.Name] = true
			}
			for _, l := range fed.Links {
				a, b := min(l.A, l.B), max(l.A, l.B)
				if a == b || a < 0 || b >= n || pairs[[2]int{a, b}] {
					t.Errorf("%v/%d: bad or repeated link %d-%d", topo, n, l.A, l.B)
				}
				pairs[[2]int{a, b}] = true
				if l.LatencyS <= 0 || l.BandwidthMbps <= 0 {
					t.Errorf("%v/%d: link %d-%d has latency %v, bandwidth %v", topo, n, l.A, l.B, l.LatencyS, l.BandwidthMbps)
				}
			}
		}
	}
}

func TestGenerateFederationDeterministicAndSeeded(t *testing.T) {
	spec := FederationSpec{Cities: 6, Topology: TopoMesh, Seed: 9}
	a, err := GenerateFederation(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GenerateFederation(spec)
	if !reflect.DeepEqual(a, b) {
		t.Error("same spec, different federation")
	}
	spec.Seed = 10
	c, _ := GenerateFederation(spec)
	if reflect.DeepEqual(a.Cities, c.Cities) {
		t.Error("the seed changes nothing")
	}
	// Members generate, and are alike in size.
	p0, err := Generate(a.Cities[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	p5, err := Generate(a.Cities[5].Spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(p0.Buildings) == 0 || len(p5.Buildings) == 0 {
		t.Error("a member city has no buildings")
	}
	if reflect.DeepEqual(p0.Buildings, p5.Buildings) {
		t.Error("two members are the same town")
	}
}

func TestGenerateFederationRejectsBadSpec(t *testing.T) {
	if _, err := GenerateFederation(FederationSpec{Cities: 1}); err == nil {
		t.Error("a one-city federation was accepted")
	}
	if _, err := GenerateFederation(FederationSpec{Cities: 3, Topology: FedTopology(9)}); err == nil {
		t.Error("an unknown topology was accepted")
	}
}

func TestParseTopologyRoundTrips(t *testing.T) {
	for topo := TopoLine; topo <= TopoMesh; topo++ {
		got, err := ParseTopology(topo.String())
		if err != nil || got != topo {
			t.Errorf("ParseTopology(%q) = %v, %v", topo.String(), got, err)
		}
	}
	if _, err := ParseTopology("torus"); err == nil {
		t.Error("unknown name accepted")
	}
}
