package immunity

import (
	"testing"

	"cnfetdk/internal/geom"
	"cnfetdk/internal/layout"
)

// Fault-injection suite: deliberately corrupt certified-immune layouts and
// require the checkers to notice. This validates the *checker* — a silent
// pass on broken geometry would invalidate every immunity claim in the
// repository.

// faultMutants lists every injected fault with the function that makes
// its corrupted network's checker; the certificate oracle test replays
// them.
var faultMutants = []struct {
	name  string
	build func(t *testing.T) *Checker
}{
	{"shortened-gate", shortenedGateMutant},
	{"removed-etch", removedEtchMutant},
	{"wrong-contact-net", wrongContactNetMutant},
	{"oversized-active", oversizedActiveMutant},
}

// shortenedGateMutant truncates a gate stripe so it no longer spans its
// active column: tubes can now sneak over the gate through doped
// material.
func shortenedGateMutant(t *testing.T) *Checker {
	t.Helper()
	c := buildCell(t, "AB", layout.StyleCompact, 4)
	// Halve the first PDN gate's height.
	mutated := false
	for i, e := range c.PDN.Elements {
		if e.Kind == layout.ElemGate {
			r := e.Rect
			c.PDN.Elements[i].Rect = geom.R(r.Min.X, r.Min.Y, r.Max.X, r.Min.Y+r.H()/2)
			mutated = true
			break
		}
	}
	if !mutated {
		t.Fatal("no gate to mutate")
	}
	return NewChecker(c.PDN, c.Gate.PDN, c.Gate.Inputs)
}

func TestInjectShortenedGateDetected(t *testing.T) {
	rep := criticalLines(t, shortenedGateMutant(t))
	if rep.Immune() {
		t.Fatal("shortened gate must break immunity (tube bypasses the gate through doped active)")
	}
}

// removedEtchMutant removes the etched separator from an etched-style
// layout, which is exactly the vulnerable geometry.
func removedEtchMutant(t *testing.T) *Checker {
	t.Helper()
	c := buildCell(t, "AB", layout.StyleEtched, 4)
	kept := c.PUN.Elements[:0]
	removed := 0
	for _, e := range c.PUN.Elements {
		if e.Kind == layout.ElemEtch {
			// Removing the etch leaves the area outside Active, which is
			// still a cut; to model the vulnerable case the region must
			// become doped active again.
			c.PUN.Active = append(c.PUN.Active, e.Rect)
			removed++
			continue
		}
		kept = append(kept, e)
	}
	c.PUN.Elements = kept
	if removed == 0 {
		t.Fatal("etched NAND2 PUN should have had an etch")
	}
	return NewChecker(c.PUN, c.Gate.PUN, c.Gate.Inputs)
}

func TestInjectRemovedEtchDetected(t *testing.T) {
	if criticalLines(t, removedEtchMutant(t)).Immune() {
		t.Fatal("removing the etch separator must break immunity")
	}
}

// wrongContactNetMutant rewires a contact to the wrong net: even aligned
// tubes now create an illegal conduction term.
func wrongContactNetMutant(t *testing.T) *Checker {
	t.Helper()
	c := buildCell(t, "ABC", layout.StyleCompact, 4)
	// NAND3 PUN row: VDD A OUT B VDD C OUT. Relabel the second contact
	// (OUT) as VDD: the A-device now "conducts" VDD-to-VDD benignly, but
	// the B device connects VDD to VDD too... instead relabel a VDD
	// contact as OUT, creating OUT -A- OUT (benign) and VDD -B- ... the
	// third contact flips B's span to OUT-OUT and C's span to OUT-OUT;
	// choose the first contact (VDD -> OUT) so span A becomes OUT..OUT
	// (benign) — the interesting case is relabelling contact 2 (OUT ->
	// GND), which introduces a foreign net with unconditional paths.
	n := 0
	for i, e := range c.PUN.Elements {
		if e.Kind == layout.ElemContact {
			n++
			if n == 2 {
				c.PUN.Elements[i].Net = "GND"
				break
			}
		}
	}
	return NewChecker(c.PUN, c.Gate.PUN, c.Gate.Inputs)
}

func TestInjectWrongContactNetDetected(t *testing.T) {
	rep := criticalLines(t, wrongContactNetMutant(t))
	if rep.Immune() {
		t.Fatal("foreign-net contact must break the conduction check")
	}
}

// oversizedActiveMutant stretches a shared-diffusion gap so the active
// region extends beyond the gate stripes vertically — simulating a
// generator bug where the doped region is taller than the gates guarding
// it.
func oversizedActiveMutant(t *testing.T) *Checker {
	t.Helper()
	c := buildCell(t, "ABC", layout.StyleCompact, 4)
	// Extend the whole PDN active above the gates: the region between
	// contacts is now reachable without crossing full-height gates.
	bb := c.PDN.BBox
	c.PDN.Active = append(c.PDN.Active, geom.R(bb.Min.X, bb.Max.Y, bb.Max.X, bb.Max.Y+geom.Lambda(2)))
	// Contacts must span the taller region for the fault to be
	// electrically meaningful.
	for i, e := range c.PDN.Elements {
		if e.Kind == layout.ElemContact {
			r := e.Rect
			c.PDN.Elements[i].Rect = geom.R(r.Min.X, r.Min.Y, r.Max.X, bb.Max.Y+geom.Lambda(2))
		}
	}
	return NewChecker(c.PDN, c.Gate.PDN, c.Gate.Inputs)
}

func TestInjectOversizedActiveDetected(t *testing.T) {
	if criticalLines(t, oversizedActiveMutant(t)).Immune() {
		t.Fatal("active region above the gates must break immunity (OUT-GND short over the gates)")
	}
}

// A sanity inverse: re-running the unmutated layouts stays immune, so the
// injections above are the cause of the failures.
func TestInjectControlGroup(t *testing.T) {
	for _, f := range []string{"AB", "ABC"} {
		c := buildCell(t, f, layout.StyleCompact, 4)
		pun, pdn := verify(t, c)
		if !pun.Immune() || !pdn.Immune() {
			t.Fatalf("%s control group not immune", f)
		}
	}
}
