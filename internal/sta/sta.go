// Package sta is the design kit's static timing engine: a levelized DAG
// over the mapped netlist evaluated against the characterized (Liberty)
// NLDM models — slew-aware table lookups at the actual output load
// (receiver input pins plus extracted wire), arrival and transition
// times propagated level by level, and the critical path traced back.
//
// The Engine is built once per netlist (net/instance interning, CSR
// adjacency, Kahn levelization) and then reanalyzed allocation-free in
// steady state; SetLoad/SetCell/Invalidate dirty only the fan-out cone
// of the change, so an N-point timing sweep costs one build plus N cone
// repropagations instead of N transistor-level transients.
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

// Result is a full-design timing report — a snapshot of an Engine's
// state (Engine.Report), or a one-shot analysis (Analyze).
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

// MaxArrival returns the design's worst arrival time.
func (r *Result) MaxArrival() float64 { return r.WorstArrivalS }

// Analyze runs one-shot STA over a combinational netlist. wireCapF adds
// per-net wire load (may be nil). Cells missing from the model cause an
// error. Repeated analysis should build an Engine instead.
func Analyze(nl *synth.Netlist, m *liberty.Model, wireCapF map[string]float64) (*Result, error) {
	e, err := NewEngine(nl, m, wireCapF)
	if err != nil {
		return nil, err
	}
	return e.Report(), nil
}

// pinRef is one instance input in engine coordinates.
type pinRef struct {
	name string
	net  int32
	sf   *liberty.Surface // the pin's NLDM arc
	capF float64
}

// surfaceOf returns the NLDM surface of a cell's arc from an input pin,
// or nil when the cell has no characterized arc for it.
func surfaceOf(cm *liberty.CellModel, pin string) *liberty.Surface {
	if arc := cm.Arc(pin); arc != nil {
		return arc.Surface
	}
	return nil
}

// instRec is one instance in engine coordinates: its model, output net,
// and input pins in sorted pin-name order (the deterministic tie-break
// for worst-arc selection).
type instRec struct {
	cell *liberty.CellModel
	out  int32
	pins []pinRef
}

// Engine is a reusable, incrementally updatable timing analyzer over one
// netlist. All steady-state methods (Analyze, Reanalyze, SetLoad,
// SetCell, Invalidate, Delay) are allocation-free; Report allocates the
// map-based snapshot. An Engine is not safe for concurrent mutation.
type Engine struct {
	model *liberty.Model

	nets  []string
	netID map[string]int32
	outs  []int32 // report nets: primary outputs, or every net

	insts    []instRec
	instName []string
	instID   map[string]int32
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

	dirty   []bool
	pending bool
	touched int

	worstID int32
	worstAt float64
}

// NewEngine interns the netlist into CSR form, levelizes it, and runs
// the initial full analysis. wireCapF (may be nil) supplies per-net wire
// capacitance; nets absent from the netlist are ignored.
func NewEngine(nl *synth.Netlist, m *liberty.Model, wireCapF map[string]float64) (*Engine, error) {
	nets := nl.Nets()
	n := len(nets)
	e := &Engine{
		model:      m,
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
	e.instID = make(map[string]int32, len(nl.Instances))
	e.instDelay = make([]float64, len(nl.Instances))
	e.dirty = make([]bool, len(nl.Instances))
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
		e.instID[inst.Name] = int32(idx)

		pins := make([]string, 0, len(inst.Conns)-1)
		for pin := range inst.Conns {
			if pin != "OUT" {
				pins = append(pins, pin)
			}
		}
		sort.Strings(pins)
		rec := &e.insts[idx]
		rec.cell = cm
		rec.out = out
		rec.pins = make([]pinRef, 0, len(pins))
		for _, pin := range pins {
			net := e.netID[inst.Conns[pin]]
			sf := surfaceOf(cm, pin)
			if sf == nil {
				return nil, fmt.Errorf("sta: %s has no NLDM arc for pin %s", inst.Cell, pin)
			}
			capF := cm.InputCapF[pin]
			rec.pins = append(rec.pins, pinRef{name: pin, net: net, sf: sf, capF: capF})
			e.pinF[net] += capF
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
	e.worstID = -1
	e.Analyze()
	return e, nil
}

// Levels returns the design's logic depth (levelization bucket count).
func (e *Engine) Levels() int { return len(e.levelStart) - 1 }

// Instances returns the number of timed instances.
func (e *Engine) Instances() int { return len(e.insts) }

// Touched returns how many instances the last Analyze/Reanalyze
// re-evaluated — the fan-out cone size for incremental updates.
func (e *Engine) Touched() int { return e.touched }

// Delay returns the design's worst arrival time.
func (e *Engine) Delay() float64 { return e.worstAt }

// WorstNet names the latest report net (see Result.WorstNet).
func (e *Engine) WorstNet() string {
	if e.worstID < 0 {
		return ""
	}
	return e.nets[e.worstID]
}

// evalInst recomputes one instance: the output net's arrival, slew and
// worst-path predecessor, plus the instance's worst-path arc delay. Pins
// are visited in sorted-name order, so ties resolve deterministically.
func (e *Engine) evalInst(i int32) {
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

func (e *Engine) updateWorst() {
	e.worstID = -1
	e.worstAt = 0
	for _, o := range e.outs {
		if at := e.arrival[o]; e.worstID < 0 || at > e.worstAt {
			e.worstID = o
			e.worstAt = at
		}
	}
}

// Analyze runs a full propagation pass over every level in topological
// order — the sequential, allocation-free steady-state path. The engine
// is left clean (no pending invalidations).
func (e *Engine) Analyze() {
	for _, i := range e.levelOrder {
		e.evalInst(i)
		e.dirty[i] = false
	}
	e.pending = false
	e.touched = len(e.insts)
	e.updateWorst()
}

func (e *Engine) markDirty(i int32) {
	if !e.dirty[i] {
		e.dirty[i] = true
		e.pending = true
	}
}

// SetLoad replaces a net's wire capacitance and invalidates its driver
// (the only instance whose delay reads that load). The change takes
// effect at the next Reanalyze.
func (e *Engine) SetLoad(net string, wireCapF float64) error {
	id, ok := e.netID[net]
	if !ok {
		return fmt.Errorf("sta: unknown net %q", net)
	}
	if e.wireF[id] == wireCapF {
		return nil
	}
	e.wireF[id] = wireCapF
	if d := e.driver[id]; d >= 0 {
		e.markDirty(d)
	}
	return nil
}

// SetCell swaps an instance's cell (a drive-strength remap, say):
// the instance's arcs and input-pin capacitances update, and both the
// instance and the drivers of any net whose load changed are
// invalidated. The new cell must carry arcs for the same input pins.
func (e *Engine) SetCell(inst, cell string) error {
	i, ok := e.instID[inst]
	if !ok {
		return fmt.Errorf("sta: unknown instance %q", inst)
	}
	cm, ok := e.model.Cells[cell]
	if !ok {
		return fmt.Errorf("sta: cell %q not characterized", cell)
	}
	rec := &e.insts[i]
	if rec.cell == cm {
		return nil
	}
	if len(cm.InputCapF) != len(rec.pins) {
		return fmt.Errorf("sta: cell %q has %d inputs, instance %q has %d",
			cell, len(cm.InputCapF), inst, len(rec.pins))
	}
	for k := range rec.pins {
		if surfaceOf(cm, rec.pins[k].name) == nil {
			return fmt.Errorf("sta: cell %q has no NLDM arc for pin %s", cell, rec.pins[k].name)
		}
	}
	for k := range rec.pins {
		p := &rec.pins[k]
		p.sf = surfaceOf(cm, p.name)
		if capF := cm.InputCapF[p.name]; capF != p.capF {
			e.pinF[p.net] += capF - p.capF
			p.capF = capF
			if d := e.driver[p.net]; d >= 0 {
				e.markDirty(d)
			}
		}
	}
	rec.cell = cm
	e.markDirty(i)
	return nil
}

// Invalidate force-dirties a net's driver and readers — the hook for
// changes the engine cannot see (a characterization refresh, say).
func (e *Engine) Invalidate(net string) error {
	id, ok := e.netID[net]
	if !ok {
		return fmt.Errorf("sta: unknown net %q", net)
	}
	if d := e.driver[id]; d >= 0 {
		e.markDirty(d)
	}
	for _, r := range e.fanEdges[e.fanStart[id]:e.fanStart[id+1]] {
		e.markDirty(r)
	}
	return nil
}

// Reanalyze repropagates exactly the dirty fan-out cone: dirty instances
// are re-evaluated in topological order, and an instance whose output
// arrival or slew actually moved dirties its readers. Returns the number
// of instances touched (0 when nothing was invalidated). Because every
// evaluation is a pure function of its fan-in, the state after Reanalyze
// is byte-identical to a full rebuild.
func (e *Engine) Reanalyze() int {
	e.touched = 0
	if !e.pending {
		return 0
	}
	for _, i := range e.levelOrder {
		if !e.dirty[i] {
			continue
		}
		e.dirty[i] = false
		out := e.insts[i].out
		oldAt, oldSlew := e.arrival[out], e.slew[out]
		e.evalInst(i)
		e.touched++
		if e.arrival[out] != oldAt || e.slew[out] != oldSlew {
			for _, r := range e.fanEdges[e.fanStart[out]:e.fanStart[out+1]] {
				e.markDirty(r)
			}
		}
	}
	e.pending = false
	e.updateWorst()
	return e.touched
}

// Report snapshots the engine into a Result (this allocates; the
// analysis itself does not).
func (e *Engine) Report() *Result {
	r := &Result{
		Arrival:       make(map[string]float64, len(e.nets)),
		InstanceDelay: make(map[string]float64, len(e.insts)),
		Levels:        e.Levels(),
	}
	for id, name := range e.nets {
		r.Arrival[name] = e.arrival[id]
	}
	for i, name := range e.instName {
		r.InstanceDelay[name] = e.instDelay[i]
	}
	if e.worstID >= 0 {
		r.WorstNet = e.nets[e.worstID]
		r.WorstArrivalS = e.worstAt
		for id := e.worstID; id >= 0; id = e.prevNet[id] {
			r.CriticalPath = append(r.CriticalPath, e.nets[id])
		}
		for i, j := 0, len(r.CriticalPath)-1; i < j; i, j = i+1, j-1 {
			r.CriticalPath[i], r.CriticalPath[j] = r.CriticalPath[j], r.CriticalPath[i]
		}
	}
	return r
}
