package synth

import (
	"fmt"

	"cnfetdk/internal/logic"
)

// This file provides benchmark-circuit generators used by the flow-level
// experiments: structural ripple-carry adders built from the Fig 8a full
// adder, plus synthesized multiplexers and decoders. They extend the
// paper's single-full-adder case study to the "many logic gates of
// minimum-to-medium sizes" regime where scheme 2's packing advantage is
// supposed to shine.

// RippleCarryAdder returns an n-bit ripple-carry adder composed of n
// structural full adders (Fig 8a), inputs A0..  B0.. and C0, outputs
// S0..S{n-1} and the final carry Cn.
func RippleCarryAdder(bits int) *Netlist {
	nl := &Netlist{Name: fmt.Sprintf("rca%d", bits)}
	nl.Inputs = append(nl.Inputs, "C0")
	for i := 0; i < bits; i++ {
		nl.Inputs = append(nl.Inputs, fmt.Sprintf("A%d", i), fmt.Sprintf("B%d", i))
	}
	carry := "C0"
	for i := 0; i < bits; i++ {
		sum, cout := fmt.Sprintf("S%d", i), fmt.Sprintf("C%d", i+1)
		cloneFullAdder(nl, fmt.Sprintf("b%d", i), fmt.Sprintf("A%d", i), fmt.Sprintf("B%d", i), carry, sum, cout)
		nl.Outputs = append(nl.Outputs, sum)
		carry = cout
	}
	nl.Outputs = append(nl.Outputs, carry)
	return nl
}

// RippleCarryAdderSpec returns the Boolean specification of the n-bit
// adder over its primary inputs, for exhaustive verification.
func RippleCarryAdderSpec(bits int) map[string]*logic.Expr {
	spec := map[string]*logic.Expr{}
	carry := logic.Var("C0")
	for i := 0; i < bits; i++ {
		a, b := logic.Var(fmt.Sprintf("A%d", i)), logic.Var(fmt.Sprintf("B%d", i))
		// sum = a ⊕ b ⊕ carry, expressed via AND/OR/NOT.
		x := xorE(a, b)
		spec[fmt.Sprintf("S%d", i)] = xorE(x, carry)
		carry = logic.Or(logic.And(a, b), logic.And(carry, x))
	}
	spec[fmt.Sprintf("C%d", bits)] = carry
	return spec
}

func xorE(a, b *logic.Expr) *logic.Expr {
	return logic.Or(logic.And(a, logic.Not(b)), logic.And(logic.Not(a), b))
}

// Mux4 synthesizes a 4:1 multiplexer (data D0..D3, selects S0 S1, output
// Y) onto the NAND2/INV library.
func Mux4() (*Netlist, error) {
	return Synthesize("mux4", Mux4Spec())
}

// Mux4Spec returns the 4:1 multiplexer specification.
func Mux4Spec() map[string]*logic.Expr {
	return map[string]*logic.Expr{"Y": logic.MustParse(
		"D0*!S0*!S1 + D1*S0*!S1 + D2*!S0*S1 + D3*S0*S1")}
}

// Decoder2 synthesizes a 2:4 decoder with enable.
func Decoder2() (*Netlist, error) {
	return Synthesize("dec2", Decoder2Spec())
}

// Decoder2Spec returns the 2:4 decoder specification.
func Decoder2Spec() map[string]*logic.Expr {
	return map[string]*logic.Expr{
		"Y0": logic.MustParse("En*!A*!B"),
		"Y1": logic.MustParse("En*A*!B"),
		"Y2": logic.MustParse("En*!A*B"),
		"Y3": logic.MustParse("En*A*B"),
	}
}

// Mux2 synthesizes a 2:1 multiplexer (data D0 D1, select S, output Y).
func Mux2() (*Netlist, error) {
	return Synthesize("mux2", Mux2Spec())
}

// Mux2Spec returns the 2:1 multiplexer specification.
func Mux2Spec() map[string]*logic.Expr {
	return map[string]*logic.Expr{"Y": logic.MustParse("D0*!S + D1*S")}
}

// ParityTree synthesizes the n-input XOR parity function P = I0 ⊕ ... ⊕
// I{n-1} as a balanced tree of 2-input XORs lowered onto the NAND2/INV
// library.
func ParityTree(n int) (*Netlist, error) {
	return Synthesize(fmt.Sprintf("parity%d", n), ParityTreeSpec(n))
}

// ParityTreeSpec returns the n-input parity specification.
func ParityTreeSpec(n int) map[string]*logic.Expr {
	e := logic.Var("I0")
	for i := 1; i < n; i++ {
		e = xorE(e, logic.Var(fmt.Sprintf("I%d", i)))
	}
	return map[string]*logic.Expr{"P": e}
}

// cloneFullAdder appends one structural full adder (Fig 8a) to the
// netlist with every net mapped through prefix except the five formal
// ports, which land on the given nets.
func cloneFullAdder(nl *Netlist, prefix, a, b, cin, sum, cout string) {
	fa := FullAdder()
	for _, inst := range fa.Instances {
		clone := Instance{
			Name:  prefix + "_" + inst.Name,
			Cell:  inst.Cell,
			Conns: map[string]string{},
		}
		for pin, net := range inst.Conns {
			switch net {
			case "A":
				net = a
			case "B":
				net = b
			case "Cin":
				net = cin
			case "Sum":
				net = sum
			case "Carry":
				net = cout
			default:
				net = prefix + "_" + net
			}
			clone.Conns[pin] = net
		}
		nl.Instances = append(nl.Instances, clone)
	}
}

// addHalfAdder appends a structural half adder built from the NAND2/INV
// library: sum = a ⊕ b via the classic four-NAND XOR, carry = a·b via
// the shared NAND plus an inverter.
func addHalfAdder(nl *Netlist, prefix, a, b, sum, carry string) {
	n1 := prefix + "_n1"
	n2 := prefix + "_n2"
	n3 := prefix + "_n3"
	inst := func(name, cell string, conns map[string]string) {
		nl.Instances = append(nl.Instances, Instance{Name: name, Cell: cell, Conns: conns})
	}
	inst(prefix+"_g1", "NAND2_1X", map[string]string{"A": a, "B": b, "OUT": n1})
	inst(prefix+"_g2", "NAND2_1X", map[string]string{"A": a, "B": n1, "OUT": n2})
	inst(prefix+"_g3", "NAND2_1X", map[string]string{"A": b, "B": n1, "OUT": n3})
	inst(prefix+"_g4", "NAND2_1X", map[string]string{"A": n2, "B": n3, "OUT": sum})
	inst(prefix+"_c", "INV_1X", map[string]string{"A": n1, "OUT": carry})
}

// addAnd appends out = a·b as a NAND2 followed by an inverter.
func addAnd(nl *Netlist, prefix, a, b, out string) {
	n := prefix + "_n"
	nl.Instances = append(nl.Instances,
		Instance{Name: prefix + "_g", Cell: "NAND2_1X", Conns: map[string]string{"A": a, "B": b, "OUT": n}},
		Instance{Name: prefix + "_i", Cell: "INV_1X", Conns: map[string]string{"A": n, "OUT": out}},
	)
}

// ArrayMultiplier returns an n×n ripple-carry array multiplier: AND-gate
// partial products pp[i][j] = A[i]·B[j] feeding rows of half/full adders
// (the full adders are clones of the Fig 8a mirror adder), inputs
// A0..A{n-1} and B0..B{n-1}, product outputs P0..P{2n-1}. At n = 4 this
// is the registry's `mult4` — the multiplier-class benchmark whose
// 294-unknown MNA system is the flow's heaviest delay transient.
func ArrayMultiplier(bits int) *Netlist {
	if bits < 2 {
		panic("synth: ArrayMultiplier needs at least 2 bits")
	}
	nl := &Netlist{Name: fmt.Sprintf("mult%d", bits)}
	for i := 0; i < bits; i++ {
		nl.Inputs = append(nl.Inputs, fmt.Sprintf("A%d", i))
	}
	for j := 0; j < bits; j++ {
		nl.Inputs = append(nl.Inputs, fmt.Sprintf("B%d", j))
	}
	// Partial products.
	pp := make([][]string, bits)
	for i := 0; i < bits; i++ {
		pp[i] = make([]string, bits)
		for j := 0; j < bits; j++ {
			out := fmt.Sprintf("pp%d%d", i, j)
			if i == 0 && j == 0 {
				out = "P0"
			}
			addAnd(nl, fmt.Sprintf("and%d%d", i, j), fmt.Sprintf("A%d", i), fmt.Sprintf("B%d", j), out)
			pp[i][j] = out
		}
	}
	// cur[k] holds the running-sum bit of weight j+k after row j;
	// carry is the previous row's carry-out (weight j-1+bits).
	cur := make([]string, bits)
	for i := 0; i < bits; i++ {
		cur[i] = pp[i][0]
	}
	carryOut := ""
	for j := 1; j < bits; j++ {
		next := make([]string, bits)
		pj := fmt.Sprintf("P%d", j)
		c := fmt.Sprintf("r%dc0", j)
		addHalfAdder(nl, fmt.Sprintf("r%dha", j), cur[1], pp[0][j], pj, c)
		for k := 2; k < bits; k++ {
			s := fmt.Sprintf("r%ds%d", j, k-1)
			nc := fmt.Sprintf("r%dc%d", j, k-1)
			cloneFullAdder(nl, fmt.Sprintf("r%dfa%d", j, k), cur[k], pp[k-1][j], c, s, nc)
			next[k-1], c = s, nc
		}
		s := fmt.Sprintf("r%ds%d", j, bits-1)
		nc := fmt.Sprintf("r%dcout", j)
		if j == bits-1 {
			s = fmt.Sprintf("P%d", bits+bits-2)
			nc = fmt.Sprintf("P%d", bits+bits-1)
		}
		if carryOut == "" {
			// Row 1 has no incoming carry: the last position is a half adder.
			addHalfAdder(nl, fmt.Sprintf("r%dhl", j), pp[bits-1][j], c, s, nc)
		} else {
			cloneFullAdder(nl, fmt.Sprintf("r%dfl", j), carryOut, pp[bits-1][j], c, s, nc)
		}
		next[bits-1], carryOut = s, nc
		if j == bits-1 {
			// The last row's sums are the high product bits.
			for k := 1; k < bits-1; k++ {
				renameNet(nl, next[k], fmt.Sprintf("P%d", j+k))
			}
		}
		cur = next
	}
	for p := 0; p < 2*bits; p++ {
		nl.Outputs = append(nl.Outputs, fmt.Sprintf("P%d", p))
	}
	return nl
}

// renameNet rewrites every connection of a net.
func renameNet(nl *Netlist, old, new string) {
	if old == new {
		return
	}
	for i := range nl.Instances {
		for pin, net := range nl.Instances[i].Conns {
			if net == old {
				nl.Instances[i].Conns[pin] = new
			}
		}
	}
}

// ArrayMultiplierSpec returns the Boolean specification of the n×n
// multiplier over its primary inputs: the same half/full-adder recurrence
// the structural builder uses, folded into expressions.
func ArrayMultiplierSpec(bits int) map[string]*logic.Expr {
	spec := map[string]*logic.Expr{}
	pp := make([][]*logic.Expr, bits)
	for i := 0; i < bits; i++ {
		pp[i] = make([]*logic.Expr, bits)
		for j := 0; j < bits; j++ {
			pp[i][j] = logic.And(logic.Var(fmt.Sprintf("A%d", i)), logic.Var(fmt.Sprintf("B%d", j)))
		}
	}
	ha := func(a, b *logic.Expr) (sum, carry *logic.Expr) {
		return xorE(a, b), logic.And(a, b)
	}
	fa := func(a, b, cin *logic.Expr) (sum, carry *logic.Expr) {
		x := xorE(a, b)
		return xorE(x, cin), logic.Or(logic.And(a, b), logic.And(cin, x))
	}
	spec["P0"] = pp[0][0]
	cur := make([]*logic.Expr, bits)
	for i := 0; i < bits; i++ {
		cur[i] = pp[i][0]
	}
	var carryOut *logic.Expr
	for j := 1; j < bits; j++ {
		next := make([]*logic.Expr, bits)
		var c *logic.Expr
		spec[fmt.Sprintf("P%d", j)], c = ha(cur[1], pp[0][j])
		for k := 2; k < bits; k++ {
			next[k-1], c = fa(cur[k], pp[k-1][j], c)
		}
		if carryOut == nil {
			next[bits-1], carryOut = ha(pp[bits-1][j], c)
		} else {
			next[bits-1], carryOut = fa(carryOut, pp[bits-1][j], c)
		}
		cur = next
	}
	for k := 1; k < bits; k++ {
		spec[fmt.Sprintf("P%d", bits-1+k)] = cur[k]
	}
	spec[fmt.Sprintf("P%d", 2*bits-1)] = carryOut
	return spec
}

// AOIChain builds a structural chain of n alternating AOI21/OAI21 cells:
// stage i computes x{i+1} = !(P·x{i} + Q) (AOI21) or !((R + x{i})·S)
// (OAI21), seeded with x0 = IN. With P=1, Q=0, R=0, S=1 every stage
// degenerates to an inverter, so pulsing IN exercises the whole chain —
// the paper's "many logic gates of minimum size" regime using the complex
// cells of Table 1.
func AOIChain(n int) *Netlist {
	nl := &Netlist{
		Name:    fmt.Sprintf("aoichain%d", n),
		Inputs:  []string{"IN", "P", "Q", "R", "S"},
		Outputs: []string{fmt.Sprintf("X%d", n)},
	}
	prev := "IN"
	for i := 0; i < n; i++ {
		out := fmt.Sprintf("X%d", i+1)
		inst := Instance{Name: fmt.Sprintf("u%d", i), Conns: map[string]string{"OUT": out}}
		if i%2 == 0 {
			inst.Cell = "AOI21_1X"
			inst.Conns["A"] = "P"
			inst.Conns["B"] = prev
			inst.Conns["C"] = "Q"
		} else {
			inst.Cell = "OAI21_1X"
			inst.Conns["A"] = "R"
			inst.Conns["B"] = prev
			inst.Conns["C"] = "S"
		}
		nl.Instances = append(nl.Instances, inst)
		prev = out
	}
	return nl
}

// AOIChainSpec folds the chain's stage functions into one expression over
// the primary inputs, for exhaustive verification.
func AOIChainSpec(n int) map[string]*logic.Expr {
	x := logic.Var("IN")
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			// AOI21: !(P·x + Q)
			x = logic.Not(logic.Or(logic.And(logic.Var("P"), x), logic.Var("Q")))
		} else {
			// OAI21: !((R + x)·S)
			x = logic.Not(logic.And(logic.Or(logic.Var("R"), x), logic.Var("S")))
		}
	}
	return map[string]*logic.Expr{fmt.Sprintf("X%d", n): x}
}
