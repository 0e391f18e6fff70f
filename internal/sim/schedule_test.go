package sim

import (
	"testing"

	"citymesh/internal/mesh"
)

// stepSchedule takes an AP down at a fixed time, forever.
type stepSchedule struct {
	ap int
	at float64
}

func (s stepSchedule) Down(ap int, t float64) bool { return ap == s.ap && t >= s.at }

// windowSchedule takes an AP down only inside [from, to).
type windowSchedule struct {
	ap       int
	from, to float64
}

func (s windowSchedule) Down(ap int, t float64) bool {
	return ap == s.ap && t >= s.from && t < s.to
}

func TestScheduleCutsChainMidRun(t *testing.T) {
	city, m := chainCity(6, 40)
	// Down from t=0: equivalent to a static failure of the midpoint.
	cfg := DefaultConfig()
	cfg.Schedule = stepSchedule{ap: 3, at: 0}
	res := run(t, m, city, floodAll{}, mkPacket(0, 5, 255), cfg)
	if res.Delivered {
		t.Error("midpoint down from t=0 should cut the chain")
	}
	if res.LostToDeadAP == 0 {
		t.Error("frames at the dead AP should be diagnosed as LostToDeadAP")
	}
	// Down only long after the packet passed: no effect.
	cfg.Schedule = stepSchedule{ap: 3, at: 1e6}
	if res := run(t, m, city, floodAll{}, mkPacket(0, 5, 255), cfg); !res.Delivered {
		t.Error("failure after propagation must not block delivery")
	}
}

func TestScheduleRecoveryDoesNotResurrectFrame(t *testing.T) {
	city, m := chainCity(6, 40)
	// AP 3 is down only during the propagation wave (first 50 ms) and
	// recovers afterwards — but the frame is gone: no delivery.
	cfg := DefaultConfig()
	cfg.Schedule = windowSchedule{ap: 3, from: 0, to: 0.05}
	res := run(t, m, city, floodAll{}, mkPacket(0, 5, 255), cfg)
	if res.Delivered {
		t.Error("an AP down exactly during the wave must drop the frame for good")
	}
}

func TestScheduledSourceSuppressed(t *testing.T) {
	city, m := chainCity(4, 40)
	cfg := DefaultConfig()
	cfg.Schedule = stepSchedule{ap: 0, at: 0}
	res := run(t, m, city, floodAll{}, mkPacket(0, 3, 255), cfg)
	if res.APsReached != 0 || res.Delivered {
		t.Errorf("scheduled-down source should inject nothing: %+v", res)
	}
}

func TestLossDiagnosticsAttribution(t *testing.T) {
	city, m := chainCity(5, 40)

	// Dead-AP losses: middle AP statically failed.
	cfg := DefaultConfig()
	cfg.FailedSet = mesh.NewNodeSet(m.NumAPs()).Add(2)
	res := run(t, m, city, floodAll{}, mkPacket(0, 4, 255), cfg)
	if res.LostToDeadAP == 0 {
		t.Error("static failure should count LostToDeadAP")
	}
	if res.LostToLoss != 0 || res.LostToCollision != 0 {
		t.Errorf("unexpected loss attribution: %+v", res)
	}

	// Random losses: full loss probability, nothing else.
	cfg = DefaultConfig()
	cfg.LossProb = 1
	res = run(t, m, city, floodAll{}, mkPacket(0, 4, 255), cfg)
	if res.LostToLoss == 0 {
		t.Error("LossProb drops should count LostToLoss")
	}
	if res.LostToDeadAP != 0 {
		t.Errorf("no dead APs in this run: %+v", res)
	}

	// Collision losses: zero jitter and a wide collision window force
	// simultaneous arrivals at shared neighbors.
	cfg = DefaultConfig()
	cfg.JitterMax = 0
	cfg.CollisionWindow = 0.5
	res = run(t, m, city, floodAll{}, mkPacket(0, 4, 255), cfg)
	if res.LostToCollision == 0 {
		t.Skipf("no collisions materialized: %+v", res)
	}
}
