package rules

import (
	"testing"

	"cnfetdk/internal/geom"
)

func TestDefault65nmCMOS(t *testing.T) {
	r := Default65nm(CMOS)
	if r.NetworkGap != geom.Lambda(10) {
		t.Fatalf("CMOS NetworkGap = %v λ, want 10", r.NetworkGap.Lambdas())
	}
	if r.PToNRatio != 1.4 {
		t.Fatalf("CMOS PToNRatio = %v, want 1.4", r.PToNRatio)
	}
	// 2λ must be 65nm at this node.
	if got := r.GateLen.Nanometers(r.LambdaNM); got != 65 {
		t.Fatalf("GateLen = %vnm, want 65", got)
	}
}

func TestDefault65nmCNFET(t *testing.T) {
	r := Default65nm(CNFET)
	if r.NetworkGap != geom.Lambda(6) {
		t.Fatalf("CNFET NetworkGap = %v λ, want 6", r.NetworkGap.Lambdas())
	}
	if r.PToNRatio != 1.0 {
		t.Fatalf("CNFET PToNRatio = %v, want 1.0", r.PToNRatio)
	}
	if r.EtchW != geom.Lambda(2) {
		t.Fatalf("EtchW = %v λ, want 2", r.EtchW.Lambdas())
	}
	if r.ViaW <= r.GateLen {
		t.Fatal("via must be wider than the gate (the vertical-gating cost)")
	}
}

func TestTechString(t *testing.T) {
	if CMOS.String() != "CMOS" || CNFET.String() != "CNFET" {
		t.Fatal("Tech.String mismatch")
	}
}
