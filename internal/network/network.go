// Package network models the series-parallel transistor networks of static
// CNFET/CMOS gates and their intended electrical behaviour.
//
// A cell is specified by its pull-down function f: the PDN lowers f with
// AND=series / OR=parallel using n-type devices (conduct when the input is
// 1), and the PUN lowers the structural dual of f using p-type devices
// (conduct when the input is 0). De Morgan guarantees the two networks
// conduct complementarily, which the immunity checker relies on.
package network

import (
	"fmt"
	"sort"

	"cnfetdk/internal/logic"
)

// DeviceType distinguishes pull-up from pull-down transistors.
type DeviceType int

// Device types.
const (
	NFET DeviceType = iota // conducts when gate input is 1
	PFET                   // conducts when gate input is 0
)

// String returns a short device-type name.
func (d DeviceType) String() string {
	if d == NFET {
		return "n"
	}
	return "p"
}

// SPKind is the node kind of a series-parallel tree.
type SPKind int

// Series-parallel tree node kinds.
const (
	SPLeaf SPKind = iota
	SPSeries
	SPParallel
)

// SPNode is a series-parallel network tree. Leaves carry the controlling
// input and the device width (in multiples of the unit transistor width).
type SPNode struct {
	Kind  SPKind
	Input string  // leaf: controlling input name
	Neg   bool    // leaf: true if the device is driven by the complemented input
	Width float64 // leaf: width multiple assigned by AssignWidths
	Kids  []*SPNode
}

// FromExpr lowers a Boolean expression to an SP tree (AND=series,
// OR=parallel). Negations are only legal directly on variables, matching
// static-gate reality where internal complement hardware does not exist.
func FromExpr(e *logic.Expr) (*SPNode, error) {
	switch e.Op {
	case logic.OpVar:
		return &SPNode{Kind: SPLeaf, Input: e.Name, Width: 1}, nil
	case logic.OpNot:
		k := e.Kids[0]
		if k.Op != logic.OpVar {
			return nil, fmt.Errorf("network: negation of non-variable %q is not series-parallel realizable", k)
		}
		return &SPNode{Kind: SPLeaf, Input: k.Name, Neg: true, Width: 1}, nil
	case logic.OpAnd, logic.OpOr:
		kids := make([]*SPNode, len(e.Kids))
		for i, kid := range e.Kids {
			n, err := FromExpr(kid)
			if err != nil {
				return nil, err
			}
			kids[i] = n
		}
		kind := SPSeries
		if e.Op == logic.OpOr {
			kind = SPParallel
		}
		return &SPNode{Kind: kind, Kids: kids}, nil
	}
	return nil, fmt.Errorf("network: bad op %d", e.Op)
}

// Depth returns the series transistor count of the worst-case path.
func (n *SPNode) Depth() int {
	switch n.Kind {
	case SPLeaf:
		return 1
	case SPSeries:
		d := 0
		for _, k := range n.Kids {
			d += k.Depth()
		}
		return d
	default: // SPParallel
		d := 0
		for _, k := range n.Kids {
			if kd := k.Depth(); kd > d {
				d = kd
			}
		}
		return d
	}
}

// Leaves returns all leaf nodes in layout order.
func (n *SPNode) Leaves() []*SPNode {
	var out []*SPNode
	var walk func(*SPNode)
	walk = func(m *SPNode) {
		if m.Kind == SPLeaf {
			out = append(out, m)
			return
		}
		for _, k := range m.Kids {
			walk(k)
		}
	}
	walk(n)
	return out
}

// AssignWidths sizes every leaf so that the worst-case conduction path of
// the whole network matches the resistance of a single device of width
// unit. Series compositions split the resistance budget proportionally to
// branch depth; each parallel branch must meet the budget alone. This is
// the sizing convention of the paper's symmetric layouts (Fig 4b): the
// NAND3 PDN chain devices come out 3x, the AOI31 PUN devices 2x.
func (n *SPNode) AssignWidths(unit float64) {
	n.assign(unit)
}

func (n *SPNode) assign(g float64) {
	switch n.Kind {
	case SPLeaf:
		n.Width = g
	case SPSeries:
		total := n.Depth()
		for _, k := range n.Kids {
			k.assign(g * float64(total) / float64(k.Depth()))
		}
	case SPParallel:
		for _, k := range n.Kids {
			k.assign(g)
		}
	}
}

// Device is one transistor of a flattened network.
type Device struct {
	Gate  string // controlling input
	Neg   bool   // complemented input
	Type  DeviceType
	From  string  // source-side net
	To    string  // drain-side net
	Width float64 // multiples of the unit width
}

// Network is a flattened transistor network between two terminal nets.
type Network struct {
	Type     DeviceType
	Top      string // e.g. "VDD" for a PUN, "OUT" for a PDN
	Bottom   string // e.g. "OUT" for a PUN, "GND" for a PDN
	Devices  []Device
	nextNode int
}

// Elaborate flattens an SP tree into a device network connecting top to
// bottom, inventing internal net names ("x1", "x2", ...) for series
// junctions.
func Elaborate(sp *SPNode, typ DeviceType, top, bottom string) *Network {
	nw := &Network{Type: typ, Top: top, Bottom: bottom}
	nw.emit(sp, top, bottom)
	return nw
}

func (nw *Network) emit(n *SPNode, a, b string) {
	switch n.Kind {
	case SPLeaf:
		nw.Devices = append(nw.Devices, Device{
			Gate: n.Input, Neg: n.Neg, Type: nw.Type, From: a, To: b, Width: n.Width,
		})
	case SPParallel:
		for _, k := range n.Kids {
			nw.emit(k, a, b)
		}
	case SPSeries:
		prev := a
		for i, k := range n.Kids {
			next := b
			if i < len(n.Kids)-1 {
				nw.nextNode++
				next = fmt.Sprintf("x%d", nw.nextNode)
			}
			nw.emit(k, prev, next)
			prev = next
		}
	}
}

// Nets returns all net names in the network, terminals first, then internal
// nets sorted.
func (nw *Network) Nets() []string {
	seen := map[string]bool{nw.Top: true, nw.Bottom: true}
	var internal []string
	for _, d := range nw.Devices {
		for _, n := range []string{d.From, d.To} {
			if !seen[n] {
				seen[n] = true
				internal = append(internal, n)
			}
		}
	}
	sort.Strings(internal)
	return append([]string{nw.Top, nw.Bottom}, internal...)
}

// deviceOn reports whether device d conducts under input vector v encoded
// over the given ordered inputs.
func deviceOn(d Device, inputs []string, v int) bool {
	k := -1
	for i, n := range inputs {
		if n == d.Gate {
			k = i
			break
		}
	}
	if k < 0 {
		panic(fmt.Sprintf("network: gate %q not in input list", d.Gate))
	}
	bit := v>>uint(k)&1 == 1
	if d.Neg {
		bit = !bit
	}
	if d.Type == NFET {
		return bit
	}
	return !bit
}

// Conduct returns the truth table (over the given ordered inputs) of
// electrical conduction between nets u and v through the network. This is
// the "intended conduction function" used by the immunity checker: a
// mispositioned tube is benign iff its conduction condition implies this.
func (nw *Network) Conduct(u, v string, inputs []string) *logic.Table {
	t := logic.NewTable(inputs)
	nets := nw.Nets()
	id := make(map[string]int, len(nets))
	for i, n := range nets {
		id[n] = i
	}
	ui, uok := id[u]
	vi, vok := id[v]
	if !uok || !vok {
		panic(fmt.Sprintf("network: unknown nets %q/%q", u, v))
	}
	parent := make([]int, len(nets))
	for vec := 0; vec < t.Rows(); vec++ {
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		for _, d := range nw.Devices {
			if deviceOn(d, inputs, vec) {
				a, b := find(id[d.From]), find(id[d.To])
				if a != b {
					parent[a] = b
				}
			}
		}
		t.Set(vec, find(ui) == find(vi))
	}
	return t
}

// Gate bundles the complementary networks of one static gate.
type Gate struct {
	Name     string
	PullDown *logic.Expr // f: output is f'
	Inputs   []string
	PDN      *Network
	PUN      *Network
	PDNTree  *SPNode
	PUNTree  *SPNode
}

// NewGate builds the complementary PUN/PDN pair for pull-down function f.
// unit is the unit transistor width multiple (usually 1); widths are
// assigned per AssignWidths. The PUN and PDN trees are sized independently:
// with equal n/p drive (CNFET) both use unit; a CMOS caller scales PUN
// widths afterwards by the p/n ratio.
func NewGate(name string, f *logic.Expr, unit float64) (*Gate, error) {
	pdnTree, err := FromExpr(f)
	if err != nil {
		return nil, fmt.Errorf("gate %s PDN: %w", name, err)
	}
	punTree, err := FromExpr(f.Dual())
	if err != nil {
		return nil, fmt.Errorf("gate %s PUN: %w", name, err)
	}
	pdnTree.AssignWidths(unit)
	punTree.AssignWidths(unit)
	g := &Gate{
		Name:     name,
		PullDown: f,
		Inputs:   f.Vars(),
		PDNTree:  pdnTree,
		PUNTree:  punTree,
		PDN:      Elaborate(pdnTree, NFET, "OUT", "GND"),
		PUN:      Elaborate(punTree, PFET, "VDD", "OUT"),
	}
	return g, nil
}

// Complementary verifies the static-gate invariant: for every input vector
// exactly one of the PUN and PDN conducts between its terminals. A true
// result means the gate neither floats nor fights.
func (g *Gate) Complementary() bool {
	up := g.PUN.Conduct("VDD", "OUT", g.Inputs)
	down := g.PDN.Conduct("OUT", "GND", g.Inputs)
	if !up.And(down).IsFalse() {
		return false
	}
	return up.Or(down).IsTrue()
}

// OutputTable returns the gate's output function (f') over its inputs.
func (g *Gate) OutputTable() *logic.Table {
	return logic.TableOf(g.PullDown, g.Inputs).Not()
}
