package synth

import (
	"fmt"
	"slices"
	"sort"

	"cnfetdk/internal/logic"
)

// Mapper lowers Boolean expressions to NAND2/INV netlists with structural
// sharing — the "conventional logic synthesis" entry into the design kit.
// Drive strengths are assigned afterwards by SizeByFanout.
type Mapper struct {
	n      *Netlist
	nextID int
	// inputs is the set of primary inputs.
	inputs map[string]bool
	// cache maps a structural key to the net already computing it;
	// cacheKeys lists each net's keys, so a rename rekeys only its own.
	cache     map[string]string
	cacheKeys map[string][]string
	// bound marks nets already claimed as primary outputs.
	bound map[string]bool
	// drivers lists, per net, the indices of the instances whose OUT it
	// is, in instance order; loads lists the instance input pins it
	// feeds. A rename touches only its own net's entries.
	drivers map[string][]int
	loads   map[string][]pinRef
	// invOut maps a net to the index of the first inverter driving it,
	// so invOnce cancels a double inversion without a netlist scan.
	invOut map[string]int
}

// pinRef names one input pin of an emitted instance.
type pinRef struct {
	inst int
	pin  string
}

// NewMapper starts a netlist with the given name and primary inputs.
func NewMapper(name string, inputs []string) *Mapper {
	m := &Mapper{
		n:         &Netlist{Name: name, Inputs: append([]string(nil), inputs...)},
		inputs:    make(map[string]bool, len(inputs)),
		cache:     map[string]string{},
		cacheKeys: map[string][]string{},
		bound:     map[string]bool{},
		drivers:   map[string][]int{},
		loads:     map[string][]pinRef{},
		invOut:    map[string]int{},
	}
	for _, in := range inputs {
		m.inputs[in] = true
	}
	return m
}

func (m *Mapper) freshNet() string {
	m.nextID++
	return fmt.Sprintf("n%d", m.nextID)
}

func (m *Mapper) emit(cell string, conns map[string]string) string {
	// Structural hashing: identical gates on identical nets are shared.
	pins := make([]string, 0, len(conns))
	for p := range conns {
		pins = append(pins, p)
	}
	sort.Strings(pins)
	key := cell
	for _, p := range pins {
		key += ";" + p + "=" + conns[p]
	}
	if out, ok := m.cache[key]; ok {
		return out
	}
	out := m.freshNet()
	conns = cloneConns(conns)
	conns["OUT"] = out
	m.place(cell, conns)
	m.cache[key] = out
	m.cacheKeys[out] = append(m.cacheKeys[out], key)
	return out
}

// place appends an instance under the next instance name and indexes
// its pins; it is not structurally cached (output buffers place their
// own private nets).
func (m *Mapper) place(cell string, conns map[string]string) {
	m.nextID++
	i := len(m.n.Instances)
	m.n.Instances = append(m.n.Instances, Instance{Name: fmt.Sprintf("u%d", m.nextID), Cell: cell, Conns: conns})
	for pin, net := range conns {
		if pin != "OUT" {
			m.loads[net] = append(m.loads[net], pinRef{i, pin})
		}
	}
	out := conns["OUT"]
	m.drivers[out] = append(m.drivers[out], i)
	if _, ok := m.invOut[out]; !ok && cell == "INV_1X" {
		m.invOut[out] = i
	}
}

// indexInverter points invOut[net] at the first inverter among the
// net's drivers, or drops it when none is an inverter.
func (m *Mapper) indexInverter(net string) {
	delete(m.invOut, net)
	for _, i := range m.drivers[net] {
		if m.n.Instances[i].Cell == "INV_1X" {
			m.invOut[net] = i
			return
		}
	}
}

func cloneConns(c map[string]string) map[string]string {
	out := make(map[string]string, len(c)+1)
	for k, v := range c {
		out[k] = v
	}
	return out
}

// inv emits an inverter.
func (m *Mapper) inv(a string) string {
	return m.emit("INV_1X", map[string]string{"A": a})
}

// nand emits a 2-input NAND.
func (m *Mapper) nand(a, b string) string {
	if b < a {
		a, b = b, a // canonical order for sharing
	}
	return m.emit("NAND2_1X", map[string]string{"A": a, "B": b})
}

// lower recursively maps an expression to a net.
func (m *Mapper) lower(e *logic.Expr) (string, error) {
	switch e.Op {
	case logic.OpVar:
		return e.Name, nil
	case logic.OpNot:
		in, err := m.lower(e.Kids[0])
		if err != nil {
			return "", err
		}
		return m.inv(in), nil
	case logic.OpAnd:
		// AND = INV(NAND), folded left to right.
		cur, err := m.lower(e.Kids[0])
		if err != nil {
			return "", err
		}
		for _, k := range e.Kids[1:] {
			nxt, err := m.lower(k)
			if err != nil {
				return "", err
			}
			cur = m.inv(m.nand(cur, nxt))
		}
		return cur, nil
	case logic.OpOr:
		// OR(a,b) = NAND(a', b'), folded left to right.
		cur, err := m.lower(e.Kids[0])
		if err != nil {
			return "", err
		}
		for _, k := range e.Kids[1:] {
			nxt, err := m.lower(k)
			if err != nil {
				return "", err
			}
			cur = m.nand(m.invOnce(cur), m.invOnce(nxt))
		}
		return cur, nil
	}
	return "", fmt.Errorf("synth: bad op")
}

// invOnce is inv with double-inversion cancellation: if net is the
// output of an inverter, it returns that inverter's input instead.
func (m *Mapper) invOnce(net string) string {
	if i, ok := m.invOut[net]; ok {
		return m.n.Instances[i].Conns["A"]
	}
	return m.inv(net)
}

// AddOutput maps the expression and binds it to the named output.
func (m *Mapper) AddOutput(name string, e *logic.Expr) error {
	net, err := m.lower(e)
	if err != nil {
		return err
	}
	switch {
	case net == name:
		// Already on the right net.
	case !m.inputs[net] && !m.bound[net]:
		m.rename(net, name)
	default:
		// The cone's net is a primary input or an already-claimed
		// output: insert a fresh (uncached) double-inverter buffer.
		mid := m.freshNet()
		m.place("INV_1X", map[string]string{"A": net, "OUT": mid})
		m.place("INV_1X", map[string]string{"A": mid, "OUT": name})
	}
	m.bound[name] = true
	m.n.Outputs = append(m.n.Outputs, name)
	return nil
}

// rename moves a net in place to a new name: its first driver's output,
// every load it feeds and the structural keys that map to it. Only the
// two nets' index entries change.
func (m *Mapper) rename(old, new string) {
	if ds := m.drivers[old]; len(ds) > 0 {
		first := ds[0]
		m.n.Instances[first].Conns["OUT"] = new
		m.drivers[old] = ds[1:]
		at, _ := slices.BinarySearch(m.drivers[new], first)
		m.drivers[new] = slices.Insert(m.drivers[new], at, first)
	}
	for _, ref := range m.loads[old] {
		m.n.Instances[ref.inst].Conns[ref.pin] = new
	}
	m.loads[new] = append(m.loads[new], m.loads[old]...)
	delete(m.loads, old)
	m.indexInverter(old)
	m.indexInverter(new)
	for _, k := range m.cacheKeys[old] {
		m.cache[k] = new
	}
	m.cacheKeys[new] = append(m.cacheKeys[new], m.cacheKeys[old]...)
	delete(m.cacheKeys, old)
}

// Netlist returns the mapped design.
func (m *Mapper) Netlist() *Netlist { return m.n }

// Synthesize maps a set of named output expressions over shared inputs
// into a NAND2/INV netlist and sizes drives by fanout. It does not
// verify the result: callers check it against the same expressions
// (the flow's netlist stage does).
func Synthesize(name string, outputs map[string]*logic.Expr) (*Netlist, error) {
	inputSet := map[string]bool{}
	for _, e := range outputs {
		for _, v := range e.Vars() {
			inputSet[v] = true
		}
	}
	inputs := make([]string, 0, len(inputSet))
	for v := range inputSet {
		inputs = append(inputs, v)
	}
	sort.Strings(inputs)
	m := NewMapper(name, inputs)
	names := make([]string, 0, len(outputs))
	for n := range outputs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := m.AddOutput(n, outputs[n]); err != nil {
			return nil, err
		}
	}
	nl := m.Netlist()
	SizeByFanout(nl)
	return nl, nil
}

// SizeByFanout upgrades cell drive strengths based on output loading:
// fanout ≥ 4 gets 4X, ≥ 2 gets 2X (when the library has that strength).
func SizeByFanout(n *Netlist) {
	fan := n.FanoutCount()
	for i := range n.Instances {
		base := baseName(n.Instances[i].Cell)
		f := fan[n.Instances[i].Conns["OUT"]]
		switch {
		case f >= 4:
			n.Instances[i].Cell = base + "_4X"
		case f >= 2:
			n.Instances[i].Cell = base + "_2X"
		}
	}
}
