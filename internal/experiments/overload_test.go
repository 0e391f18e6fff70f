package experiments

import (
	"strings"
	"testing"

	"citymesh/internal/core"
	"citymesh/internal/session"
)

// The acceptance shape of the experiment: under a 4x flash crowd on a 30%
// AP failure, the session layer degrades gracefully — accepted-message p99
// latency stays bounded by the queue discipline (it cannot exceed the run
// duration, and the queue bound pins the wait component), and every
// offered message is attributed to exactly one outcome. It runs that cell
// of the default sweep only, the last of its grid.
func TestOverloadGracefulDegradationAt4x30(t *testing.T) {
	cfg := DefaultOverloadConfig()
	n, err := loadCity(cfg.City, cfg.Scale, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := overloadCell(n, cfg, len(overloadFailFracs)*len(overloadLoads)-1, 0.3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AccountingError(); err != nil {
		t.Fatal(err)
	}
	if r.Offered == 0 || r.Delivered == 0 {
		t.Fatalf("no traffic delivered under overload: %+v", r)
	}
	duration := float64(r.Ticks)
	if r.LatencyP99 <= 0 || r.LatencyP99 >= duration {
		t.Fatalf("p99 latency %v not in (0, %v): degradation is not graceful", r.LatencyP99, duration)
	}
	if r.PeakTier < session.TierCongested {
		t.Fatalf("admission never tightened under 4x flash crowd: peak tier %v", r.PeakTier)
	}
	rejected := r.RejectedAdmission + r.RejectedRateLimit + r.RejectedBufferFull
	if rejected == 0 {
		t.Fatalf("overload produced no rejections: %+v", r)
	}
	if r.Residual != 0 {
		t.Fatalf("unattributed residual messages: %+v", r)
	}
}

func TestOverloadRenderers(t *testing.T) {
	rows := []OverloadRow{{City: "x", Mode: "disk", FailFrac: 0.3, Load: 4}}
	rows[0].Offered = 10
	rows[0].Accepted = 8
	rows[0].Delivered = 7
	rows[0].DroppedNetworkExhausted = 1
	rows[0].RejectedAdmission = 2
	text := OverloadText(rows)
	if !strings.Contains(text, "x") || !strings.Contains(text, "4x") {
		t.Fatalf("text table missing cells:\n%s", text)
	}
	csv := OverloadCSV(rows)
	if !strings.HasPrefix(csv, "city,mode,load,fail_frac") || !strings.Contains(csv, "x,disk,4.00,0.30") {
		t.Fatalf("csv malformed:\n%s", csv)
	}
}
