package main

import (
	"bytes"
	"strings"
	"testing"
)

// runCmd invokes the command seam and returns (exit, stdout, stderr).
func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	code, _, stderr := runCmd(t, "-no-such-flag")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "no-such-flag") {
		t.Errorf("stderr should name the bad flag:\n%s", stderr)
	}
}

func TestRunRejectsBadFailFrac(t *testing.T) {
	code, _, stderr := runCmd(t, "-fail-mode=uniform", "-fail-frac=1.5")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "bad -fail-frac") {
		t.Errorf("stderr = %q", stderr)
	}
	if code, _, _ := runCmd(t, "-heal", "-fail-frac=nope"); code != 2 {
		t.Fatalf("heal with bad frac: exit = %d, want 2", code)
	}
}

func TestRunRejectsUnknownCity(t *testing.T) {
	code, _, stderr := runCmd(t, "-cities=atlantis", "-reach-pairs=10", "-deliver-pairs=2")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "atlantis") {
		t.Errorf("stderr = %q", stderr)
	}
	if code, _, _ := runCmd(t, "-heal", "-cities=atlantis"); code != 1 {
		t.Fatalf("heal with unknown city: exit = %d, want 1", code)
	}
}

func TestRunRejectsUnknownFaultMode(t *testing.T) {
	code, _, stderr := runCmd(t, "-fail-mode=earthquake", "-fail-frac=0.1")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "earthquake") {
		t.Errorf("stderr = %q", stderr)
	}
}

func TestRunFigure6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test is slow")
	}
	code, stdout, stderr := runCmd(t,
		"-cities=gridtown", "-scale=0.3", "-reach-pairs=50", "-deliver-pairs=5")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "gridtown") {
		t.Errorf("figure 6 table missing the city:\n%s", stdout)
	}
}

func TestRunResilienceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test is slow")
	}
	code, stdout, stderr := runCmd(t,
		"-cities=gridtown", "-scale=0.3", "-fail-mode=uniform", "-fail-frac=0.3",
		"-pairs=5")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "uniform") || !strings.Contains(stdout, "gridtown") {
		t.Errorf("resilience table malformed:\n%s", stdout)
	}
}

func TestRunHealSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test is slow")
	}
	code, stdout, stderr := runCmd(t,
		"-heal", "-cities=gridtown", "-scale=0.3", "-fail-mode=disk",
		"-fail-frac=0.3", "-pairs=8", "-heal-decay=45", "-recover-at=60")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"ladder+health", "store-and-heal"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("heal report missing %q:\n%s", want, stdout)
		}
	}
}

func TestRunList(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"figure6", "resilience", "geocast", "headers"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-list output missing %q:\n%s", want, stdout)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	code, _, stderr := runCmd(t, "-experiment=bogus")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "bogus") {
		t.Errorf("stderr should name the unknown experiment:\n%s", stderr)
	}
}

func TestRunRejectsInvalidSimOverride(t *testing.T) {
	code, _, stderr := runCmd(t, "-loss=1.5")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "LossProb") {
		t.Errorf("stderr should name the invalid knob:\n%s", stderr)
	}
	if code, _, _ := runCmd(t, "-tx-delay=-1"); code != 2 {
		t.Fatalf("negative tx-delay: exit = %d, want 2", code)
	}
	if code, _, _ := runCmd(t, "-max-events=-5"); code != 2 {
		t.Fatalf("negative max-events: exit = %d, want 2", code)
	}
}

func TestRunExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test is slow")
	}
	code, stdout, stderr := runCmd(t,
		"-experiment=headers", "-cities=gridtown", "-scale=0.4", "-pairs=10", "-par=4", "-csv")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "city,") {
		t.Errorf("experiment CSV malformed:\n%s", stdout)
	}
}

func TestRunSimOverrideAppliesToFigure6(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test is slow")
	}
	base := []string{"-cities=gridtown", "-scale=0.3", "-reach-pairs=50", "-deliver-pairs=5", "-csv"}
	code, clean, stderr := runCmd(t, base...)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	// An explicit zero override must really reach the simulator: dropping
	// jitter to 0 changes broadcast interleaving and thus the overhead
	// column, while an untouched -loss default must leave output alone.
	code, overridden, stderr := runCmd(t, append([]string{"-jitter-max=0"}, base...)...)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if clean == "" || overridden == "" {
		t.Fatal("empty CSV output")
	}
	code, same, stderr := runCmd(t, base...)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if same != clean {
		t.Errorf("identical invocations diverged:\n%s\nvs\n%s", clean, same)
	}
}

func TestRunHealCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test is slow")
	}
	code, stdout, stderr := runCmd(t,
		"-heal", "-cities=gridtown", "-scale=0.3", "-pairs=5", "-csv")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "city,mode,fail_frac") {
		t.Errorf("csv output malformed:\n%s", stdout)
	}
}

func TestRunFederationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test is slow")
	}
	code, stdout, stderr := runCmd(t,
		"-experiment=federation", "-federation-cities=3", "-federation-topology=ring",
		"-link-fail-frac=0", "-pairs=2", "-par=2", "-csv")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "cities,topology,") {
		t.Errorf("federation CSV malformed:\n%s", stdout)
	}
	if !strings.Contains(stdout, "ring") {
		t.Errorf("topology flag ignored:\n%s", stdout)
	}
}

func TestRunFederationFlagsRequireExperiment(t *testing.T) {
	code, _, stderr := runCmd(t, "-federation-cities=5")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "federation") {
		t.Errorf("stderr should explain the flag scope:\n%s", stderr)
	}
}

func TestRunFederationRejectsBadLinkFailFrac(t *testing.T) {
	code, _, stderr := runCmd(t, "-experiment=federation", "-link-fail-frac=2.0")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "link-fail-frac") {
		t.Errorf("stderr should name the bad flag:\n%s", stderr)
	}
}
