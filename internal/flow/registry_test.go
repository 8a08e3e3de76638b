package flow

import (
	"errors"
	"testing"

	"cnfetdk/internal/synth"
)

func TestRegistryCircuitsBuildAndVerify(t *testing.T) {
	cs := Circuits()
	if len(cs) < 4 {
		t.Fatalf("registry holds %d circuits, want >= 4", len(cs))
	}
	for _, c := range cs {
		nl, err := c.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", c.Name, err)
		}
		if len(nl.Instances) == 0 || len(nl.Outputs) == 0 {
			t.Fatalf("%s: empty netlist", c.Name)
		}
		// Kit.Run reports NetCount as Result.Nets.
		if got, want := nl.NetCount(), len(nl.Nets()); got != want {
			t.Fatalf("%s: NetCount %d, len(Nets) %d", c.Name, got, want)
		}
		if c.Spec != nil {
			// Honor each circuit's sample bound: rca8's 17 inputs make
			// the exhaustive scan 131072 vectors.
			if err := nl.VerifySampled(c.Spec(), c.SpecSamples); err != nil {
				t.Fatalf("%s: spec verification: %v", c.Name, err)
			}
		}
		// The default stimulus must cover the inputs and toggle at
		// least one output — the contract the delay analysis relies on.
		lo, err := stimulusEnv(nl, c.Stimulus, false)
		if err != nil {
			t.Fatalf("%s: stimulus: %v", c.Name, err)
		}
		hi, _ := stimulusEnv(nl, c.Stimulus, true)
		loV, err := nl.Evaluate(lo)
		if err != nil {
			t.Fatalf("%s: evaluate: %v", c.Name, err)
		}
		hiV, _ := nl.Evaluate(hi)
		toggles := false
		for _, out := range nl.Outputs {
			if loV[out] != hiV[out] {
				toggles = true
			}
		}
		if !toggles {
			t.Errorf("%s: stimulus toggles no output", c.Name)
		}
	}
}

func TestLookupCircuitUnknown(t *testing.T) {
	if _, err := LookupCircuit("nonesuch"); !errors.Is(err, ErrUnknownCircuit) {
		t.Fatalf("err = %v, want ErrUnknownCircuit", err)
	}
}

func TestRegisterCircuitDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	RegisterCircuit(Circuit{Name: "fulladder", Build: func() (*synth.Netlist, error) { return nil, nil }})
}
