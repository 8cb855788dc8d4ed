package exp

import (
	"bytes"
	"testing"
)

func TestElasticExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("elastic experiment in -short mode")
	}
	res, err := Elastic(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.rows))
	}
	failStop, rejoin, shed := res.rows[0], res.rows[1], res.rows[2]
	if failStop.endMembers != 3 || failStop.lostShare == 0 {
		t.Errorf("fail-stop kept %d members (lost share %.2f), want a permanent loss",
			failStop.endMembers, failStop.lostShare)
	}
	if rejoin.endMembers != 4 || rejoin.admissions != 1 {
		t.Errorf("rejoin ended with %d members, %d admissions, want 4 and 1",
			rejoin.endMembers, rejoin.admissions)
	}
	if shed.endMembers != 4 {
		t.Errorf("rejoin+shed ended with %d members, want 4", shed.endMembers)
	}
	if shed.demotions == 0 {
		t.Error("rejoin+shed never demoted the slowed rank")
	}
	for _, row := range res.rows {
		if !row.bitExact {
			t.Errorf("%s diverged from the fault-free solution", row.scenario)
		}
	}
	if !res.corruptionSurvived || res.fallbacks == 0 {
		t.Errorf("corruption survival = %v with %d fallbacks, want survival",
			res.corruptionSurvived, res.fallbacks)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}
