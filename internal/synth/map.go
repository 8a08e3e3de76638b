package synth

import (
	"fmt"
	"sort"

	"cnfetdk/internal/logic"
)

// Mapper lowers Boolean expressions to NAND2/INV netlists with structural
// sharing — the "conventional logic synthesis" entry into the design kit.
// Drive strengths are assigned afterwards by SizeByFanout.
type Mapper struct {
	n      *Netlist
	nextID int
	// cache maps a structural key to the net already computing it.
	cache map[string]string
	// bound marks nets already claimed as primary outputs.
	bound map[string]bool
}

// NewMapper starts a netlist with the given name and primary inputs.
func NewMapper(name string, inputs []string) *Mapper {
	return &Mapper{
		n:     &Netlist{Name: name, Inputs: append([]string(nil), inputs...)},
		cache: map[string]string{},
		bound: map[string]bool{},
	}
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
	m.nextID++
	m.n.Instances = append(m.n.Instances, Instance{
		Name:  fmt.Sprintf("u%d", m.nextID),
		Cell:  cell,
		Conns: conns,
	})
	m.cache[key] = out
	return out
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

// invOnce is inv with double-inversion cancellation.
func (m *Mapper) invOnce(net string) string {
	// If net is the output of an inverter, return its input instead.
	for _, inst := range m.n.Instances {
		if inst.Cell == "INV_1X" && inst.Conns["OUT"] == net {
			return inst.Conns["A"]
		}
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
	case !m.isPrimaryInput(net) && !m.bound[net]:
		// Rename the driving instance's output net in place.
		for i := range m.n.Instances {
			if m.n.Instances[i].Conns["OUT"] == net {
				m.n.Instances[i].Conns["OUT"] = name
				break
			}
		}
		m.renameLoads(net, name)
		m.rekey(net, name)
	default:
		// The cone's net is a primary input or an already-claimed
		// output: insert a fresh (uncached) double-inverter buffer.
		mid := m.freshNet()
		m.emitFresh("INV_1X", map[string]string{"A": net, "OUT": mid})
		m.emitFresh("INV_1X", map[string]string{"A": mid, "OUT": name})
	}
	m.bound[name] = true
	m.n.Outputs = append(m.n.Outputs, name)
	return nil
}

func (m *Mapper) isPrimaryInput(net string) bool {
	for _, in := range m.n.Inputs {
		if in == net {
			return true
		}
	}
	return false
}

// emitFresh places an instance without structural caching (used for output
// buffers whose nets must stay private).
func (m *Mapper) emitFresh(cell string, conns map[string]string) {
	m.nextID++
	m.n.Instances = append(m.n.Instances, Instance{
		Name:  fmt.Sprintf("u%d", m.nextID),
		Cell:  cell,
		Conns: cloneConns(conns),
	})
}

func (m *Mapper) renameLoads(old, new string) {
	for i := range m.n.Instances {
		for p, v := range m.n.Instances[i].Conns {
			if p != "OUT" && v == old {
				m.n.Instances[i].Conns[p] = new
			}
		}
	}
}

// rekey updates the structural-sharing cache after a net rename.
func (m *Mapper) rekey(old, new string) {
	for k, v := range m.cache {
		if v == old {
			m.cache[k] = new
		}
	}
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
