package core

import (
	"errors"
	"testing"

	"citymesh/internal/sim"
)

func TestReliableMaxRungStopsEscalation(t *testing.T) {
	// Kill the short corridor's midpoint so direct and retry both fail;
	// with MaxRung = RungRetry the ladder must stop there — no widen, no
	// multipath, no flood — and report exhaustion.
	n, src, dst, mid := corridorNetwork(t, 400, 300)
	simCfg := sim.DefaultConfig()
	for _, ap := range n.Mesh.APsInBuilding(mid) {
		simCfg.FailedSet = simCfg.FailedSet.Add(int(ap))
	}
	rcfg := DefaultReliableConfig()
	rcfg.MaxRung = RungRetry
	res, err := n.SendReliable(src, dst, nil, simCfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered || res.Rung != RungExhausted {
		t.Fatalf("bounded ladder delivered: %+v", res)
	}
	if len(res.Attempts) != 1+rcfg.Retries {
		t.Fatalf("got %d attempts, want %d (direct + retries only)", len(res.Attempts), 1+rcfg.Retries)
	}
	for i, a := range res.Attempts {
		if a.Rung > RungRetry {
			t.Errorf("attempt %d escalated past the cap: %v", i, a.Rung)
		}
	}

	// Raising the cap to RungMultipath re-enables the rung that can route
	// around the dead midpoint.
	rcfg.MaxRung = RungMultipath
	res, err = n.SendReliable(src, dst, nil, simCfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || res.Rung != RungMultipath {
		t.Fatalf("cap at multipath: rung = %v delivered = %v", res.Rung, res.Delivered)
	}
}

func TestReliableMaxRungZeroIsFullLadder(t *testing.T) {
	// The zero value keeps PR-8 behavior: everything up to flood runs.
	n, src, dst, _ := corridorNetwork(t, 400, 300)
	rcfg := DefaultReliableConfig()
	if rcfg.MaxRung != 0 {
		t.Fatal("default config should leave the ladder unbounded")
	}
	res, err := n.SendReliable(src, dst, nil, sim.DefaultConfig(), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatalf("healthy mesh: %+v", res)
	}
}

func TestReliableMaxRungValidation(t *testing.T) {
	for _, bad := range []Rung{-1, RungExhausted, RungExhausted + 3} {
		c := ReliableConfig{MaxRung: bad}
		if err := c.Validate(); !errors.Is(err, ErrBadMaxRung) {
			t.Errorf("MaxRung = %v: err = %v, want ErrBadMaxRung", bad, err)
		}
	}
	for _, ok := range []Rung{0, RungRetry, RungWiden, RungFlood} {
		c := ReliableConfig{MaxRung: ok}
		if err := c.Validate(); err != nil {
			t.Errorf("MaxRung = %v: unexpected err %v", ok, err)
		}
	}
}
