package flow

import (
	"context"
	"errors"
	"slices"
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
			if err := nl.Verify(context.Background(), c.Spec()); err != nil {
				t.Fatalf("%s: spec proof: %v", c.Name, err)
			}
		}
		// Info reports the built netlist's interface.
		if info, err := c.Info(); err != nil || info.Name != c.Name || !slices.Equal(info.Inputs, nl.Inputs) ||
			!slices.Equal(info.Outputs, nl.Outputs) || info.Instances != len(nl.Instances) {
			t.Fatalf("%s: Info = %+v, %v; netlist has %v -> %v, %d instances",
				c.Name, info, err, nl.Inputs, nl.Outputs, len(nl.Instances))
		}
		// The default stimulus must cover the inputs and toggle at
		// least one output — the contract the delay analysis relies on,
		// and why admission never checks it.
		if err := checkStimulus(c.Name, nl.Inputs, c.Stimulus); err != nil {
			t.Fatalf("%s: default stimulus: %v", c.Name, err)
		}
		loV, hiV, err := stimulusLevels(nl, c.Stimulus)
		if err != nil {
			t.Fatalf("%s: evaluate: %v", c.Name, err)
		}
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
