package sta

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"cnfetdk/internal/liberty"
	"cnfetdk/internal/synth"
)

// loadTable is a one-slew-row NLDM surface: delay depends on load only
// and the output edge stays the primary-input edge, so hand-computed
// arrival times stay simple sums.
func loadTable(loadsF, delaysS []float64) *liberty.Surface {
	out := make([]float64, len(loadsF))
	for i := range out {
		out[i] = DefaultInputSlewS
	}
	return &liberty.Surface{
		SlewsS:   []float64{DefaultInputSlewS},
		LoadsF:   loadsF,
		DelayS:   [][]float64{delaysS},
		OutSlewS: [][]float64{out},
	}
}

// fakeModel builds a hand-written liberty model for STA unit tests (no
// spice characterization needed).
func fakeModel() *liberty.Model {
	mk := func(name string, inputs []string, d0 float64) *liberty.CellModel {
		cm := &liberty.CellModel{
			Name:      name,
			InputCapF: map[string]float64{},
		}
		for _, in := range inputs {
			cm.InputCapF[in] = 1e-15
			cm.Arcs = append(cm.Arcs, liberty.Arc{
				Input:   in,
				Surface: loadTable([]float64{1e-15, 4e-15}, []float64{d0, d0 * 2}),
			})
		}
		return cm
	}
	return &liberty.Model{
		Cells: map[string]*liberty.CellModel{
			"INV_1X":   mk("INV_1X", []string{"A"}, 10e-12),
			"INV_2X":   mk("INV_2X", []string{"A"}, 6e-12),
			"NAND2_1X": mk("NAND2_1X", []string{"A", "B"}, 15e-12),
		},
	}
}

// invChain builds a linear chain of n inverters A -> n1 -> ... -> Y.
func invChain(n int) *synth.Netlist {
	nl := &synth.Netlist{Name: "chain", Inputs: []string{"A"}, Outputs: []string{"Y"}}
	in := "A"
	for i := 1; i <= n; i++ {
		out := "Y"
		if i < n {
			out = fmt.Sprintf("n%d", i)
		}
		nl.Instances = append(nl.Instances, synth.Instance{
			Name: fmt.Sprintf("u%d", i), Cell: "INV_1X",
			Conns: map[string]string{"A": in, "OUT": out},
		})
		in = out
	}
	return nl
}

func TestAnalyzeChain(t *testing.T) {
	nl := invChain(2)
	res, err := Analyze(nl, fakeModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// u1 drives one INV input (1fF): delay = 10ps; u2 drives nothing
	// (load 0 -> clamp to first point): 10ps. Total 20ps.
	if math.Abs(res.MaxArrival()-20e-12) > 1e-15 {
		t.Fatalf("arrival = %v, want 20ps", res.MaxArrival())
	}
	wantPath := []string{"A", "n1", "Y"}
	if !reflect.DeepEqual(res.CriticalPath, wantPath) {
		t.Fatalf("path = %v, want %v", res.CriticalPath, wantPath)
	}
	if res.WorstNet != "Y" {
		t.Fatalf("WorstNet = %q, want Y", res.WorstNet)
	}
	if res.Levels != 2 {
		t.Fatalf("levels = %d, want 2", res.Levels)
	}
}

func TestAnalyzePicksWorstArc(t *testing.T) {
	// B arrives later through an inverter; the NAND's worst path is B.
	nl := &synth.Netlist{
		Name:    "conv",
		Inputs:  []string{"A", "B"},
		Outputs: []string{"Y"},
		Instances: []synth.Instance{
			{Name: "u1", Cell: "INV_1X", Conns: map[string]string{"A": "B", "OUT": "nb"}},
			{Name: "u2", Cell: "NAND2_1X", Conns: map[string]string{"A": "A", "B": "nb", "OUT": "Y"}},
		},
	}
	res, err := Analyze(nl, fakeModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Path through nb: 10 + 15 = 25ps.
	if math.Abs(res.MaxArrival()-25e-12) > 1e-15 {
		t.Fatalf("arrival = %v, want 25ps", res.MaxArrival())
	}
	if res.CriticalPath[1] != "nb" {
		t.Fatalf("critical path should go through nb: %v", res.CriticalPath)
	}
}

// TestInstanceDelayWorstPathOnly pins the report semantics: an
// instance's delay is the arc on its own worst input path, not the worst
// arc over all pins, so critical-path instance delays sum to the design
// delay.
func TestInstanceDelayWorstPathOnly(t *testing.T) {
	m := fakeModel()
	// Pin A's arc is much slower than pin B's, but B's input arrives so
	// late that the worst path still runs through B.
	m.Cells["SKEW_1X"] = &liberty.CellModel{
		Name:      "SKEW_1X",
		InputCapF: map[string]float64{"A": 1e-15, "B": 1e-15},
		Arcs: []liberty.Arc{
			{Input: "A", Surface: loadTable([]float64{1e-15}, []float64{30e-12})},
			{Input: "B", Surface: loadTable([]float64{1e-15}, []float64{5e-12})},
		},
	}
	nl := &synth.Netlist{
		Name:    "skew",
		Inputs:  []string{"A", "B"},
		Outputs: []string{"Y"},
		Instances: []synth.Instance{
			{Name: "slow1", Cell: "INV_1X", Conns: map[string]string{"A": "B", "OUT": "m1"}},
			{Name: "slow2", Cell: "INV_1X", Conns: map[string]string{"A": "m1", "OUT": "m2"}},
			{Name: "slow3", Cell: "INV_1X", Conns: map[string]string{"A": "m2", "OUT": "m3"}},
			{Name: "u", Cell: "SKEW_1X", Conns: map[string]string{"A": "A", "B": "m3", "OUT": "Y"}},
		},
	}
	res, err := Analyze(nl, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Worst path: B -> m1 -> m2 -> m3 -> Y (3 INVs + 5ps B arc), not the
	// 30ps A arc.
	if res.CriticalPath[len(res.CriticalPath)-2] != "m3" {
		t.Fatalf("critical path = %v, want ... m3 Y", res.CriticalPath)
	}
	if got := res.InstanceDelay["u"]; got != 5e-12 {
		t.Fatalf("InstanceDelay[u] = %v, want the worst-path arc (5ps), not the worst arc (30ps)", got)
	}
	sum := 0.0
	for _, inst := range []string{"slow1", "slow2", "slow3", "u"} {
		sum += res.InstanceDelay[inst]
	}
	if math.Abs(sum-res.WorstArrivalS) > 1e-18 {
		t.Fatalf("critical-path instance delays sum to %v, want %v", sum, res.WorstArrivalS)
	}
}

func TestAnalyzeWireLoadRaisesDelay(t *testing.T) {
	nl := invChain(1)
	dry, err := Analyze(nl, fakeModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	wet, err := Analyze(nl, fakeModel(), map[string]float64{"Y": 4e-15})
	if err != nil {
		t.Fatal(err)
	}
	if wet.MaxArrival() <= dry.MaxArrival() {
		t.Fatal("wire load must increase delay")
	}
}

// TestSlewPropagation: with a 2-D surface whose delay grows with input
// slew, downstream gates see the degraded edges the first stage produces
// — the chain must be slower than a slew-blind prediction.
func TestSlewPropagation(t *testing.T) {
	sf := &liberty.Surface{
		SlewsS:   []float64{5e-12, 40e-12},
		LoadsF:   []float64{1e-15, 4e-15},
		DelayS:   [][]float64{{10e-12, 20e-12}, {20e-12, 40e-12}},
		OutSlewS: [][]float64{{40e-12, 40e-12}, {40e-12, 40e-12}},
	}
	m := &liberty.Model{
		Cells: map[string]*liberty.CellModel{
			"INV_1X": {
				Name:      "INV_1X",
				InputCapF: map[string]float64{"A": 1e-15},
				Arcs: []liberty.Arc{{
					Input:   "A",
					Surface: sf,
				}},
			},
		},
	}
	nl := invChain(3)
	res, err := Analyze(nl, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// u1 sees the primary 5ps edge (10ps at 1fF pin load), u2/u3 see the
	// 40ps output edges (20ps, 20ps at their loads' first points).
	want := 50e-12
	if math.Abs(res.MaxArrival()-want) > 1e-15 {
		t.Fatalf("slew-aware arrival = %v, want %v", res.MaxArrival(), want)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	bad := &synth.Netlist{
		Name:   "bad",
		Inputs: []string{"A"},
		Instances: []synth.Instance{
			{Name: "u1", Cell: "XOR_1X", Conns: map[string]string{"A": "A", "OUT": "Y"}},
		},
	}
	if _, err := Analyze(bad, fakeModel(), nil); err == nil {
		t.Fatal("uncharacterized cell must error")
	}
	bare := fakeModel()
	bare.Cells["INV_1X"].Arcs[0].Surface = nil
	if _, err := Analyze(invChain(1), bare, nil); err == nil {
		t.Fatal("an arc without an NLDM surface must error")
	}
	cyc := &synth.Netlist{
		Name:   "cyc",
		Inputs: []string{"A"},
		Instances: []synth.Instance{
			{Name: "u1", Cell: "NAND2_1X", Conns: map[string]string{"A": "A", "B": "q", "OUT": "q"}},
		},
	}
	if _, err := Analyze(cyc, fakeModel(), nil); err == nil {
		t.Fatal("cyclic netlist must error")
	}
	undriven := &synth.Netlist{
		Name:   "undrv",
		Inputs: []string{"A"},
		Instances: []synth.Instance{
			{Name: "u1", Cell: "NAND2_1X", Conns: map[string]string{"A": "A", "B": "ghost", "OUT": "Y"}},
		},
	}
	if _, err := Analyze(undriven, fakeModel(), nil); err == nil {
		t.Fatal("undriven net must error")
	}
	twice := &synth.Netlist{
		Name:   "twice",
		Inputs: []string{"A"},
		Instances: []synth.Instance{
			{Name: "u1", Cell: "INV_1X", Conns: map[string]string{"A": "A", "OUT": "Y"}},
			{Name: "u2", Cell: "INV_1X", Conns: map[string]string{"A": "A", "OUT": "Y"}},
		},
	}
	if _, err := Analyze(twice, fakeModel(), nil); err == nil {
		t.Fatal("multiply-driven net must error")
	}
}

// TestEngineIncrementalMatchesFull: after SetLoad/SetCell plus
// Reanalyze, every reported value must be byte-identical to an engine
// rebuilt from scratch with the same inputs.
func TestEngineIncrementalMatchesFull(t *testing.T) {
	nl := invChain(12)
	wire := map[string]float64{"n3": 1.5e-15, "n7": 0.5e-15}
	eng, err := NewEngine(nl, fakeModel(), wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetLoad("n5", 2.5e-15); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetCell("u9", "INV_2X"); err != nil {
		t.Fatal(err)
	}
	eng.Reanalyze()

	wire2 := map[string]float64{"n3": 1.5e-15, "n5": 2.5e-15, "n7": 0.5e-15}
	nl2 := invChain(12)
	nl2.Instances[8].Cell = "INV_2X" // u9
	full, err := NewEngine(nl2, fakeModel(), wire2)
	if err != nil {
		t.Fatal(err)
	}
	got, want := eng.Report(), full.Report()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("incremental report diverges from full rebuild:\n got %+v\nwant %+v", got, want)
	}
}

// TestReanalyzeTouchesOnlyCone pins the incremental contract: a load
// change re-evaluates the changed net's driver plus its downstream cone
// — never the whole design.
func TestReanalyzeTouchesOnlyCone(t *testing.T) {
	const n = 10
	eng, err := NewEngine(invChain(n), fakeModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Touched() != n {
		t.Fatalf("initial analysis touched %d, want %d", eng.Touched(), n)
	}
	before := eng.Report()
	// n6's driver is u6; raising its load slows u6..u10: a 5-instance cone.
	if err := eng.SetLoad("n6", 2e-15); err != nil {
		t.Fatal(err)
	}
	if touched := eng.Reanalyze(); touched != 5 {
		t.Fatalf("Reanalyze touched %d instances, want the 5-instance cone", touched)
	}
	after := eng.Report()
	for i := 1; i <= 5; i++ {
		inst := fmt.Sprintf("u%d", i)
		if after.InstanceDelay[inst] != before.InstanceDelay[inst] {
			t.Fatalf("%s outside the cone was recomputed differently", inst)
		}
	}
	if after.MaxArrival() <= before.MaxArrival() {
		t.Fatal("added load must slow the design")
	}
	// A clean engine reanalyzes nothing.
	if touched := eng.Reanalyze(); touched != 0 {
		t.Fatalf("clean Reanalyze touched %d, want 0", touched)
	}
	// Setting the same load again is a no-op.
	if err := eng.SetLoad("n6", 2e-15); err != nil {
		t.Fatal(err)
	}
	if touched := eng.Reanalyze(); touched != 0 {
		t.Fatalf("no-op SetLoad touched %d, want 0", touched)
	}
}

// TestInvalidateDirtiesCone: Invalidate re-evaluates driver + readers
// and converges back to the same answer.
func TestInvalidateDirtiesCone(t *testing.T) {
	eng, err := NewEngine(invChain(8), fakeModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Delay()
	if err := eng.Invalidate("n4"); err != nil {
		t.Fatal(err)
	}
	// Driver u4 and reader u5 re-evaluate; nothing changed, so the cone
	// stops there.
	if touched := eng.Reanalyze(); touched != 2 {
		t.Fatalf("Invalidate cone touched %d, want 2", touched)
	}
	if eng.Delay() != before {
		t.Fatal("no-op invalidation must not move the answer")
	}
}

func TestEngineMutationErrors(t *testing.T) {
	eng, err := NewEngine(invChain(3), fakeModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetLoad("nope", 1e-15); err == nil {
		t.Fatal("unknown net must error")
	}
	if err := eng.SetCell("nope", "INV_2X"); err == nil {
		t.Fatal("unknown instance must error")
	}
	if err := eng.SetCell("u1", "GHOST_1X"); err == nil {
		t.Fatal("uncharacterized cell must error")
	}
	if err := eng.SetCell("u1", "NAND2_1X"); err == nil {
		t.Fatal("pin-count mismatch must error")
	}
	if err := eng.Invalidate("nope"); err == nil {
		t.Fatal("unknown net must error")
	}
}
