// Package synth provides the front of the logic-to-GDSII flow: a small
// structural netlist model, a text netlist parser, a NAND/INV technology
// mapper for combinational expressions, and logic-level verification of
// mapped netlists against their specification.
package synth

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Instance is one placed gate.
type Instance struct {
	Name string
	Cell string // library full name, e.g. "NAND2_2X"
	// Conns maps cell formal pins (A, B, ..., OUT) to net names.
	Conns map[string]string
}

// Netlist is a flat gate-level design.
type Netlist struct {
	Name      string
	Inputs    []string
	Outputs   []string
	Instances []Instance
}

// Nets returns all net names in deterministic order.
func (n *Netlist) Nets() []string {
	seen := map[string]bool{}
	var out []string
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, in := range n.Inputs {
		add(in)
	}
	for _, inst := range n.Instances {
		for _, net := range inst.Conns {
			add(net)
		}
	}
	sort.Strings(out)
	return out
}

// NetCount returns len(n.Nets()) without listing or sorting the nets.
func (n *Netlist) NetCount() int {
	seen := make(map[string]struct{}, len(n.Inputs)+len(n.Instances))
	for _, in := range n.Inputs {
		seen[in] = struct{}{}
	}
	for _, inst := range n.Instances {
		for _, net := range inst.Conns {
			seen[net] = struct{}{}
		}
	}
	return len(seen)
}

// FanoutCount returns how many instance inputs each net drives.
func (n *Netlist) FanoutCount() map[string]int {
	out := map[string]int{}
	for _, inst := range n.Instances {
		for pin, net := range inst.Conns {
			if pin != "OUT" {
				out[net]++
			}
		}
	}
	return out
}

// Parse reads the tiny structural format:
//
//	module NAME
//	input A B Cin
//	output Sum Carry
//	u1 NAND2_2X A=A B=B OUT=n1
//	...
//	endmodule
//
// Lines starting with # are comments.
func Parse(r io.Reader) (*Netlist, error) {
	n := &Netlist{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "module":
			if len(f) != 2 {
				return nil, fmt.Errorf("synth: line %d: module needs a name", lineNo)
			}
			n.Name = f[1]
		case "endmodule":
			if n.Name == "" {
				return nil, fmt.Errorf("synth: line %d: endmodule without module", lineNo)
			}
			return n, sc.Err()
		case "input":
			n.Inputs = append(n.Inputs, f[1:]...)
		case "output":
			n.Outputs = append(n.Outputs, f[1:]...)
		default:
			if len(f) < 3 {
				return nil, fmt.Errorf("synth: line %d: malformed instance", lineNo)
			}
			inst := Instance{Name: f[0], Cell: f[1], Conns: map[string]string{}}
			for _, kv := range f[2:] {
				parts := strings.SplitN(kv, "=", 2)
				if len(parts) != 2 {
					return nil, fmt.Errorf("synth: line %d: bad pin binding %q", lineNo, kv)
				}
				inst.Conns[parts[0]] = parts[1]
			}
			n.Instances = append(n.Instances, inst)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n.Name == "" {
		return nil, fmt.Errorf("synth: missing module header")
	}
	return n, nil
}

// Format renders the netlist in the Parse format.
func (n *Netlist) Format(w io.Writer) error {
	fmt.Fprintf(w, "module %s\n", n.Name)
	if len(n.Inputs) > 0 {
		fmt.Fprintf(w, "input %s\n", strings.Join(n.Inputs, " "))
	}
	if len(n.Outputs) > 0 {
		fmt.Fprintf(w, "output %s\n", strings.Join(n.Outputs, " "))
	}
	for _, inst := range n.Instances {
		pins := make([]string, 0, len(inst.Conns))
		for p := range inst.Conns {
			pins = append(pins, p)
		}
		sort.Strings(pins)
		parts := []string{inst.Name, inst.Cell}
		for _, p := range pins {
			parts = append(parts, p+"="+inst.Conns[p])
		}
		fmt.Fprintln(w, strings.Join(parts, " "))
	}
	_, err := fmt.Fprintln(w, "endmodule")
	return err
}

// baseName strips the drive suffix: "NAND2_2X" -> "NAND2".
func baseName(cell string) string {
	if i := strings.LastIndex(cell, "_"); i > 0 {
		return cell[:i]
	}
	return cell
}
