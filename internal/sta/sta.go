// Package sta is the design kit's static timing engine: a levelized DAG
// over the mapped netlist evaluated against the characterized (Liberty)
// NLDM models — slew-aware table lookups at the actual output load
// (receiver input pins plus extracted wire), arrival and transition
// times propagated level by level, and the critical path traced back.
//
// Analyze is the package's one operation: it builds a one-shot engine
// over the netlist (net/instance interning, CSR fan-out adjacency, Kahn
// levelization), propagates once in topological order and snapshots the
// report. A timing sweep over the wire model is a sweep.Spec over the
// flow's cached sta stage, which characterizes the NLDM model once and
// pays one Analyze per point instead of a transistor-level transient.
package sta

import (
	"fmt"
	"math"
	"sort"

	"cnfetdk/internal/liberty"
	"cnfetdk/internal/synth"
)

// DefaultInputSlewS is the transition time assumed on primary inputs:
// the 5 ps edge every characterization testbench and flow stimulus
// drives (cells.DefaultSlewS).
const DefaultInputSlewS = 5e-12

// Result is a full-design timing report.
type Result struct {
	// Arrival maps every net to its worst arrival time (s); primary
	// inputs are 0.
	Arrival map[string]float64
	// WorstNet names the latest primary output (the latest net overall
	// when the netlist declares no outputs).
	WorstNet string
	// WorstArrivalS is WorstNet's arrival time — the design delay.
	WorstArrivalS float64
	// CriticalPath lists nets from a primary input to WorstNet.
	CriticalPath []string
	// InstanceDelay records, per instance, the delay of the arc on that
	// instance's own worst input path — not the worst arc over all pins,
	// so summing the critical path's instances reproduces WorstArrivalS.
	InstanceDelay map[string]float64
	// Levels is the design's logic depth (levelization bucket count).
	Levels int
}

// Analyze runs STA over a combinational netlist. wireCapF adds per-net
// wire load (may be nil); nets absent from the netlist are ignored.
// Cells missing from the model cause an error.
func Analyze(nl *synth.Netlist, m *liberty.Model, wireCapF map[string]float64) (*Result, error) {
	e, err := newEngine(nl, m, wireCapF)
	if err != nil {
		return nil, err
	}
	e.propagate()
	return e.report(), nil
}

// pinRef is one instance input in engine coordinates.
type pinRef struct {
	net int32
	sf  *liberty.Surface // the pin's NLDM arc
}

// instRec is one instance in engine coordinates: its output net and
// input pins in sorted pin-name order (the deterministic tie-break for
// worst-arc selection).
type instRec struct {
	out  int32
	pins []pinRef
}

// engine is one netlist interned for a single analysis.
type engine struct {
	nets  []string
	netID map[string]int32
	outs  []int32 // report nets: primary outputs, or every net

	insts    []instRec
	instName []string
	driver   []int32 // per net: driving instance, -1 = primary input

	// CSR fan-out: fanEdges[fanStart[n]:fanStart[n+1]] lists the
	// instances reading net n (one entry per reading pin).
	fanStart []int32
	fanEdges []int32

	// Levelization: levelOrder is every instance in topological order;
	// levelStart[l]:levelStart[l+1] brackets level l's bucket. Within a
	// level, instances appear in netlist order.
	levelStart []int32
	levelOrder []int32

	inputSlewS float64

	wireF   []float64 // per net: extracted wire capacitance
	pinF    []float64 // per net: sum of receiver input-pin capacitances
	arrival []float64 // per net
	slew    []float64 // per net: transition time
	prevNet []int32   // per net: worst-path predecessor net, -1 = source

	instDelay []float64 // per instance: worst-path arc delay
}

// newEngine interns the netlist into CSR form and levelizes it; the
// caller propagates.
func newEngine(nl *synth.Netlist, m *liberty.Model, wireCapF map[string]float64) (*engine, error) {
	nets := nl.Nets()
	n := len(nets)
	e := &engine{
		nets:       nets,
		netID:      make(map[string]int32, n),
		inputSlewS: DefaultInputSlewS,
		driver:     make([]int32, n),
		wireF:      make([]float64, n),
		pinF:       make([]float64, n),
		arrival:    make([]float64, n),
		slew:       make([]float64, n),
		prevNet:    make([]int32, n),
	}
	for i, name := range nets {
		e.netID[name] = int32(i)
		e.driver[i] = -1
		e.prevNet[i] = -1
	}
	for net, c := range wireCapF {
		if id, ok := e.netID[net]; ok {
			e.wireF[id] = c
		}
	}

	e.insts = make([]instRec, len(nl.Instances))
	e.instName = make([]string, len(nl.Instances))
	e.instDelay = make([]float64, len(nl.Instances))
	for idx, inst := range nl.Instances {
		cm, ok := m.Cells[inst.Cell]
		if !ok {
			return nil, fmt.Errorf("sta: cell %q not characterized", inst.Cell)
		}
		outNet, ok := inst.Conns["OUT"]
		if !ok {
			return nil, fmt.Errorf("sta: instance %q has no OUT pin", inst.Name)
		}
		out := e.netID[outNet]
		if e.driver[out] >= 0 {
			return nil, fmt.Errorf("sta: net %q driven by both %q and %q",
				outNet, e.instName[e.driver[out]], inst.Name)
		}
		e.driver[out] = int32(idx)
		e.instName[idx] = inst.Name

		pins := make([]string, 0, len(inst.Conns)-1)
		for pin := range inst.Conns {
			if pin != "OUT" {
				pins = append(pins, pin)
			}
		}
		sort.Strings(pins)
		rec := &e.insts[idx]
		rec.out = out
		rec.pins = make([]pinRef, 0, len(pins))
		for _, pin := range pins {
			net := e.netID[inst.Conns[pin]]
			arc := cm.Arc(pin)
			if arc == nil || arc.Surface == nil {
				return nil, fmt.Errorf("sta: %s has no NLDM arc for pin %s", inst.Cell, pin)
			}
			rec.pins = append(rec.pins, pinRef{net: net, sf: arc.Surface})
			e.pinF[net] += cm.InputCapF[pin]
		}
	}

	isInput := make([]bool, n)
	for _, in := range nl.Inputs {
		id, ok := e.netID[in]
		if !ok {
			continue // declared input never connected; nothing to time
		}
		if e.driver[id] >= 0 {
			return nil, fmt.Errorf("sta: primary input %q is driven by %q",
				in, e.instName[e.driver[id]])
		}
		isInput[id] = true
	}
	for _, rec := range e.insts {
		for _, p := range rec.pins {
			if e.driver[p.net] < 0 && !isInput[p.net] {
				return nil, fmt.Errorf("sta: net %q is undriven", e.nets[p.net])
			}
		}
	}

	// CSR fan-out (readers per net, in instance order).
	e.fanStart = make([]int32, n+1)
	for _, rec := range e.insts {
		for _, p := range rec.pins {
			e.fanStart[p.net+1]++
		}
	}
	for i := 0; i < n; i++ {
		e.fanStart[i+1] += e.fanStart[i]
	}
	e.fanEdges = make([]int32, e.fanStart[n])
	fill := make([]int32, n)
	copy(fill, e.fanStart[:n])
	for idx := range e.insts {
		for _, p := range e.insts[idx].pins {
			e.fanEdges[fill[p.net]] = int32(idx)
			fill[p.net]++
		}
	}

	// Kahn levelization over instances: an instance's level is one past
	// the deepest driver of its inputs (0 when fed by primary inputs
	// only). A residue after the queue drains is a combinational cycle.
	level := make([]int32, len(e.insts))
	indeg := make([]int32, len(e.insts))
	for idx := range e.insts {
		for _, p := range e.insts[idx].pins {
			if e.driver[p.net] >= 0 {
				indeg[idx]++
			}
		}
	}
	queue := make([]int32, 0, len(e.insts))
	for idx := range e.insts {
		if indeg[idx] == 0 {
			queue = append(queue, int32(idx))
		}
	}
	processed := 0
	maxLevel := int32(-1)
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		processed++
		lv := int32(0)
		rec := &e.insts[i]
		for _, p := range rec.pins {
			if d := e.driver[p.net]; d >= 0 && level[d]+1 > lv {
				lv = level[d] + 1
			}
		}
		level[i] = lv
		if lv > maxLevel {
			maxLevel = lv
		}
		out := rec.out
		for _, r := range e.fanEdges[e.fanStart[out]:e.fanStart[out+1]] {
			indeg[r]--
			if indeg[r] == 0 {
				queue = append(queue, r)
			}
		}
	}
	if processed != len(e.insts) {
		return nil, fmt.Errorf("sta: netlist is cyclic (%d of %d instances levelize)",
			processed, len(e.insts))
	}

	// Bucket instances by level; netlist order within a bucket keeps the
	// schedule deterministic regardless of Kahn pop order.
	e.levelStart = make([]int32, maxLevel+2)
	for _, lv := range level {
		e.levelStart[lv+1]++
	}
	for l := 0; l < len(e.levelStart)-1; l++ {
		e.levelStart[l+1] += e.levelStart[l]
	}
	e.levelOrder = make([]int32, len(e.insts))
	lfill := make([]int32, maxLevel+1)
	copy(lfill, e.levelStart[:maxLevel+1])
	for idx := range e.insts {
		lv := level[idx]
		e.levelOrder[lfill[lv]] = int32(idx)
		lfill[lv]++
	}

	if len(nl.Outputs) > 0 {
		for _, o := range nl.Outputs {
			if id, ok := e.netID[o]; ok {
				e.outs = append(e.outs, id)
			}
		}
	} else {
		e.outs = make([]int32, n)
		for i := range e.outs {
			e.outs[i] = int32(i)
		}
	}

	for i := range e.slew {
		e.slew[i] = e.inputSlewS
	}
	return e, nil
}

// evalInst recomputes one instance: the output net's arrival, slew and
// worst-path predecessor, plus the instance's worst-path arc delay. Pins
// are visited in sorted-name order, so ties resolve deterministically.
func (e *engine) evalInst(i int32) {
	rec := &e.insts[i]
	load := e.pinF[rec.out] + e.wireF[rec.out]
	bestAt := math.Inf(-1)
	bestNet := int32(-1)
	bestDelay := 0.0
	bestSlew := e.inputSlewS
	for k := range rec.pins {
		p := &rec.pins[k]
		inSlew := e.slew[p.net]
		d := p.sf.Delay(inSlew, load)
		outSlew := p.sf.OutSlew(inSlew, load)
		if at := e.arrival[p.net] + d; at > bestAt {
			bestAt, bestNet, bestDelay, bestSlew = at, p.net, d, outSlew
		}
	}
	e.arrival[rec.out] = bestAt
	e.slew[rec.out] = bestSlew
	e.prevNet[rec.out] = bestNet
	e.instDelay[i] = bestDelay
}

// propagate evaluates every instance once, level by level in
// topological order.
func (e *engine) propagate() {
	for _, i := range e.levelOrder {
		e.evalInst(i)
	}
}

// report snapshots the propagated engine into a Result: the latest
// report net is the worst, and the critical path is traced back from it.
func (e *engine) report() *Result {
	r := &Result{
		Arrival:       make(map[string]float64, len(e.nets)),
		InstanceDelay: make(map[string]float64, len(e.insts)),
		Levels:        len(e.levelStart) - 1,
	}
	for id, name := range e.nets {
		r.Arrival[name] = e.arrival[id]
	}
	for i, name := range e.instName {
		r.InstanceDelay[name] = e.instDelay[i]
	}
	worstID := int32(-1)
	for _, o := range e.outs {
		if at := e.arrival[o]; worstID < 0 || at > r.WorstArrivalS {
			worstID = o
			r.WorstArrivalS = at
		}
	}
	if worstID >= 0 {
		r.WorstNet = e.nets[worstID]
		for id := worstID; id >= 0; id = e.prevNet[id] {
			r.CriticalPath = append(r.CriticalPath, e.nets[id])
		}
		for i, j := 0, len(r.CriticalPath)-1; i < j; i, j = i+1, j-1 {
			r.CriticalPath[i], r.CriticalPath[j] = r.CriticalPath[j], r.CriticalPath[i]
		}
	}
	return r
}
