package exp

import (
	"bytes"
	"strings"
	"testing"
)

func TestSensorFaultExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("sensor-fault experiment in -short mode")
	}
	res, err := SensorFaults(40, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.rows))
	}
	clean, static, naive, hygiene := res.rows[0], res.rows[1], res.rows[2], res.rows[3]
	// Shape criteria (EXPERIMENTS.md): measured against ground-truth
	// capacities, the hygienic adaptive run beats both the run that trusts
	// every reading and the run that never re-senses; the fault-free run
	// bounds them all.
	if hygiene.trueImb >= naive.trueImb {
		t.Errorf("hygiene true imbalance %.1f%% not below naive %.1f%%",
			hygiene.trueImb, naive.trueImb)
	}
	if hygiene.trueImb >= static.trueImb {
		t.Errorf("hygiene true imbalance %.1f%% not below static %.1f%%",
			hygiene.trueImb, static.trueImb)
	}
	if clean.trueImb >= hygiene.trueImb {
		t.Errorf("fault-free imbalance %.1f%% should bound hygiene %.1f%%",
			clean.trueImb, hygiene.trueImb)
	}
	if clean.degraded != 0 {
		t.Errorf("fault-free run saw %d degraded probes", clean.degraded)
	}
	if naive.degraded == 0 || hygiene.degraded == 0 {
		t.Errorf("fault injection inert: naive=%d hygiene=%d degraded probes",
			naive.degraded, hygiene.degraded)
	}
	// Hygiene absorbs the faults before the capacity metric: no sensing
	// sweep fails outright.
	if hygiene.senseFail != 0 {
		t.Errorf("hygiene run had %d failed senses", hygiene.senseFail)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hygiene adaptive", "True imb"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
}
