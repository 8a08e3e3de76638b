package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"cnfetdk/internal/flow"
)

// The immunity analysis prints its certificate: distinct cells, critical
// lines, violations and the verdict.
func TestRenderPrintsCertificate(t *testing.T) {
	req, err := buildRequest("mux2", nil, "", "design", 2, "immunity")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	kit, err := flow.New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := kit.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := render(&buf, req, res, nil); err != nil {
		t.Fatal(err)
	}
	want := "netlist mux2: 6 instances, 9 nets\n" +
		"immunity: 3 distinct cells, 21408 critical lines checked, 0 violations\n" +
		"verdict: IMMUNE\n"
	if buf.String() != want {
		t.Errorf("render =\n%s\nwant\n%s", buf.String(), want)
	}
}

// A design that is not immune still prints its certificate, then fails
// naming its vulnerable cells.
func TestRenderFailsVulnerableDesign(t *testing.T) {
	res := &flow.Result{Circuit: "bad", Techs: map[string]*flow.TechResult{
		"cnfet": {Immunity: &flow.ImmunityResult{CellsChecked: 2, CriticalLines: 40, Violations: 3,
			VulnerableCells: []string{"NAND2_1X"}}},
		"cmos": {},
	}}
	var buf bytes.Buffer
	err := render(&buf, flow.Request{Circuit: "bad"}, res, nil)
	if err == nil || !strings.Contains(err.Error(), "NAND2_1X") {
		t.Fatalf("render err = %v, want the vulnerable cell named", err)
	}
	if !strings.Contains(buf.String(), "immunity: 2 distinct cells, 40 critical lines checked, 3 violations\n") {
		t.Errorf("certificate missing:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "IMMUNE") {
		t.Errorf("vulnerable design printed an IMMUNE verdict:\n%s", buf.String())
	}
}

// -analyses accepts only what cnfetdk reports; gds and liberty name the
// command that does write them.
func TestBuildRequestRejectsUnreportedAnalyses(t *testing.T) {
	for _, tc := range []struct{ analyses, hint string }{
		{"area,gds", "-gds"},
		{"liberty", "libchar -circuit"},
		{"power", "area, delay, sta, energy and immunity"},
	} {
		_, err := buildRequest("mux2", nil, "", "design", 2, tc.analyses)
		if err == nil || !strings.Contains(err.Error(), tc.hint) {
			t.Errorf("-analyses %s: err = %v, want one naming %q", tc.analyses, err, tc.hint)
		}
	}
	req, err := buildRequest("mux2", nil, "", "design", 2, "area, delay,sta,energy,immunity")
	if err != nil || len(req.Analyses) != 5 {
		t.Errorf("reported analyses: req.Analyses = %v, err = %v, want all five", req.Analyses, err)
	}
}
