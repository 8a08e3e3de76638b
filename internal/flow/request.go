package flow

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/device"
	"cnfetdk/internal/logic"
	"cnfetdk/internal/pipeline"
	"cnfetdk/internal/place"
	"cnfetdk/internal/rules"
	"cnfetdk/internal/synth"
)

// Typed sentinel errors of the design-service API. Kit.Run wraps them
// with request detail; match with errors.Is.
var (
	// ErrBadRequest marks a structurally invalid request (no circuit,
	// conflicting sources, missing stimulus for a timing analysis, ...).
	ErrBadRequest = errors.New("flow: bad request")
	// ErrUnknownCircuit marks a circuit name absent from the registry.
	ErrUnknownCircuit = errors.New("flow: unknown circuit")
	// ErrUnknownTech marks a technology name that is neither CNFET nor
	// CMOS.
	ErrUnknownTech = errors.New("flow: unknown technology")
	// ErrUnknownAnalysis marks an analysis name outside Analyses.
	ErrUnknownAnalysis = errors.New("flow: unknown analysis")
	// ErrUnknownPlacement marks a placement scheme outside
	// {"", "rows", "shelves"}.
	ErrUnknownPlacement = errors.New("flow: unknown placement scheme")
)

// Analysis names a per-technology analysis a Request can ask for.
type Analysis string

// The supported analyses.
const (
	AnalysisArea     Analysis = "area"     // placement area/utilization
	AnalysisDelay    Analysis = "delay"    // transistor-level stimulus delay
	AnalysisSTA      Analysis = "sta"      // levelized static timing analysis
	AnalysisEnergy   Analysis = "energy"   // calibrated switching energy
	AnalysisImmunity Analysis = "immunity" // per-cell misaligned-CNT certificates
	AnalysisLiberty  Analysis = "liberty"  // Liberty (.lib) characterization
	AnalysisGDS      Analysis = "gds"      // GDSII stream of the placement
)

// Analyses lists every supported analysis in canonical order.
func Analyses() []Analysis {
	return []Analysis{AnalysisArea, AnalysisDelay, AnalysisSTA, AnalysisEnergy,
		AnalysisImmunity, AnalysisLiberty, AnalysisGDS}
}

// Stimulus describes how to exercise a circuit for the delay and energy
// analyses: static DC levels on some inputs and a pulse on one input.
// Registry circuits carry a default stimulus; inline requests supply
// their own.
type Stimulus struct {
	// Static assigns DC levels to inputs (true = Vdd).
	Static map[string]bool `json:"static,omitempty"`
	// Pulse names the input driven with the measurement pulse.
	Pulse string `json:"pulse,omitempty"`
}

// Request is one serializable design-service job: a circuit (by registry
// name, inline Boolean equations, or an inline structural netlist), the
// technologies to run it in, the placement scheme, the wire-capacitance
// model, and the set of analyses to perform.
type Request struct {
	// Circuit names a registry circuit. Exactly one of Circuit, Exprs,
	// Netlist must be set.
	Circuit string `json:"circuit,omitempty"`
	// Exprs maps output names to Boolean expressions (logic.Parse
	// syntax) to synthesize onto the NAND2/INV library.
	Exprs map[string]string `json:"exprs,omitempty"`
	// Netlist is an inline structural netlist in the synth.Parse format.
	Netlist string `json:"netlist,omitempty"`
	// Name overrides the design name for inline circuits.
	Name string `json:"name,omitempty"`

	// Techs selects the technologies ("cnfet", "cmos"); empty = both.
	Techs []string `json:"techs,omitempty"`
	// Placement selects the CNFET placement scheme: "rows" (scheme 1),
	// "shelves" (scheme 2, default). CMOS always places as rows.
	Placement string `json:"placement,omitempty"`
	// WireCapPerNM overrides the interconnect capacitance model
	// (F per nm of HPWL), at most MaxWireCapPerNM; 0 selects the
	// WireCapPerNM default.
	WireCapPerNM float64 `json:"wire_cap_per_nm,omitempty"`

	// Analyses selects what to compute; empty = ["area"].
	Analyses []Analysis `json:"analyses,omitempty"`
	// Stimulus drives the delay/energy analyses; defaults to the
	// registry circuit's stimulus, and is required for inline circuits
	// that request them.
	Stimulus *Stimulus `json:"stimulus,omitempty"`
	// MCTubes adds a Monte Carlo sample of this many tubes per network
	// to the immunity analysis (0 = critical-line certificates only).
	MCTubes int `json:"mc_tubes,omitempty"`
	// MCAngleDeg bounds the Monte Carlo misalignment angle in degrees
	// (0 selects the paper's ±15°).
	MCAngleDeg float64 `json:"mc_angle_deg,omitempty"`
	// Seed seeds the immunity Monte Carlo sample and the variation
	// ensembles.
	Seed int64 `json:"seed,omitempty"`

	// CNT process-variation model (device.Variations, field for field).
	// All-zero (the default) disables variation modeling entirely and
	// reproduces pre-variation results byte-identically. A non-zero
	// count/diameter spread adds a delay-distribution ensemble to the
	// CNFET delay analysis; any non-zero channel makes the immunity
	// analysis compose a functional yield.
	CNTCountCV      float64 `json:"cnt_count_cv,omitempty"`
	DiameterSigmaNM float64 `json:"diameter_sigma_nm,omitempty"`
	AlignmentP      float64 `json:"alignment_p,omitempty"`
	// VarSamples sizes the per-design delay ensemble (0 selects
	// DefaultVarSamples when a variation spread is active).
	VarSamples int `json:"var_samples,omitempty"`
}

// DefaultVarSamples is the delay-ensemble size used when a request
// activates variation spreads without choosing one.
const DefaultVarSamples = 16

// MaxVarSamples bounds the per-request ensemble size: each sample is a
// full transistor-level transient of the design.
const MaxVarSamples = 1024

// variations collects the request's variation model.
func (r *Request) variations() device.Variations {
	return device.Variations{
		CountCV:         r.CNTCountCV,
		DiameterSigmaNM: r.DiameterSigmaNM,
		AlignmentP:      r.AlignmentP,
	}
}

// resolved is a request after normalize: every default filled in and
// the circuit source turned into a netlist builder. Kit.Run builds its
// stage graph from it.
type resolved struct {
	techs    []rules.Tech
	analyses []Analysis
	build    func() (*synth.Netlist, error)
	// spec, when set, is what the netlist stage proves the netlist against.
	spec func() map[string]*logic.Expr
	stim Stimulus
	rows int
}

// libraryCells lists the cells an inline netlist may instantiate: both
// libraries are built from cells.DefaultSpecs.
var libraryCells = sync.OnceValue(func() []string { return cells.NewLibrary(rules.CNFET).Names() })

// normalize is the one check a request passes before any stage runs: it
// resolves defaults, validates every name and bound, resolves the
// circuit source (registry lookup, logic.Parse of each inline
// expression, synth.Parse and Netlist.Check of an inline netlist), and
// checks a delay or energy stimulus against the source's inputs.
func (r *Request) normalize() (*resolved, error) {
	sources := 0
	if r.Circuit != "" {
		sources++
	}
	if len(r.Exprs) > 0 {
		sources++
	}
	if r.Netlist != "" {
		sources++
	}
	if sources != 1 {
		return nil, fmt.Errorf("%w: exactly one of circuit, exprs, netlist must be set", ErrBadRequest)
	}

	techs := r.Techs
	if len(techs) == 0 {
		techs = []string{"cmos", "cnfet"}
	}
	var ts []rules.Tech
	seen := map[rules.Tech]bool{}
	for _, name := range techs {
		t, err := ParseTech(name)
		if err != nil {
			return nil, err
		}
		if !seen[t] {
			seen[t] = true
			ts = append(ts, t)
		}
	}

	switch r.Placement {
	case "", "shelves", "rows":
	default:
		return nil, fmt.Errorf("%w: %q (want rows or shelves)", ErrUnknownPlacement, r.Placement)
	}

	analyses := r.Analyses
	if len(analyses) == 0 {
		analyses = []Analysis{AnalysisArea}
	}
	known := map[Analysis]bool{}
	for _, a := range Analyses() {
		known[a] = true
	}
	var as []Analysis
	seenA := map[Analysis]bool{}
	for _, a := range analyses {
		a = Analysis(strings.ToLower(string(a)))
		if !known[a] {
			return nil, fmt.Errorf("%w: %q", ErrUnknownAnalysis, a)
		}
		if !seenA[a] {
			seenA[a] = true
			as = append(as, a)
		}
	}
	if seenA[AnalysisImmunity] && !seen[rules.CNFET] {
		return nil, fmt.Errorf("%w: the immunity analysis requires the cnfet technology", ErrBadRequest)
	}
	if err := r.variations().Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if r.VarSamples < 0 || r.VarSamples > MaxVarSamples {
		return nil, fmt.Errorf("%w: var_samples %d outside [0, %d]", ErrBadRequest, r.VarSamples, MaxVarSamples)
	}
	if !(r.WireCapPerNM >= 0 && r.WireCapPerNM <= MaxWireCapPerNM) {
		return nil, fmt.Errorf("%w: wire_cap_per_nm %g outside [0, %g] F/nm", ErrBadRequest, r.WireCapPerNM, MaxWireCapPerNM)
	}

	// Resolve the circuit source: what the netlist stage builds and
	// verifies, its default stimulus and row-count hint, and the inputs a
	// stimulus is checked against.
	res := &resolved{techs: ts, analyses: as}
	if r.Stimulus != nil {
		res.stim = *r.Stimulus
	}
	var design string
	var inputs []string
	switch {
	case r.Circuit != "":
		c, err := LookupCircuit(r.Circuit)
		if err != nil {
			return nil, err
		}
		if r.Stimulus == nil {
			res.stim = c.Stimulus
		}
		res.build, res.spec, res.rows = c.Build, c.Spec, c.Rows
		if r.Stimulus != nil {
			info, err := c.Info() // built once per process
			if err != nil {
				return nil, err
			}
			design, inputs = c.Name, info.Inputs
		}
	case len(r.Exprs) > 0:
		name := r.Name
		if name == "" {
			name = "design"
		}
		outputs := map[string]*logic.Expr{}
		inputSet := map[string]bool{}
		for out, src := range r.Exprs {
			e, err := logic.Parse(src)
			if err != nil {
				return nil, fmt.Errorf("%w: expr %s: %v", ErrBadRequest, out, err)
			}
			outputs[out] = e
			for _, v := range e.Vars() {
				inputSet[v] = true
			}
		}
		// synth.Synthesize's inputs are exactly the union of the
		// expressions' variables.
		design, inputs = name, make([]string, 0, len(inputSet))
		for v := range inputSet {
			inputs = append(inputs, v)
		}
		sort.Strings(inputs)
		res.build = func() (*synth.Netlist, error) { return synth.Synthesize(name, outputs) }
		res.spec = func() map[string]*logic.Expr { return outputs }
	default:
		nl, err := synth.Parse(strings.NewReader(r.Netlist))
		if err == nil {
			err = nl.Check(libraryCells())
		}
		if err != nil {
			return nil, fmt.Errorf("%w: netlist: %v", ErrBadRequest, err)
		}
		if r.Name != "" {
			nl.Name = r.Name
		}
		design, inputs = nl.Name, nl.Inputs
		res.build = func() (*synth.Netlist, error) { return nl, nil }
	}
	// A registry circuit's default stimulus is valid by construction
	// (the registry test pins it); every other one is checked against
	// its source's inputs, so no stage re-checks.
	if (seenA[AnalysisDelay] || seenA[AnalysisEnergy]) && (r.Circuit == "" || r.Stimulus != nil) {
		if err := checkStimulus(design, inputs, res.stim); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Validate reports whether the request can run, without running it. It
// is the check Kit.Run makes before its first stage: the circuit source
// is unambiguous and resolves (a registered name, parsable expressions
// or a parsable netlist valid as a whole), every tech, placement and
// analysis name is known, every bound holds, and immunity comes with
// cnfet.
func (r *Request) Validate() error {
	_, err := r.normalize()
	return err
}

// identity renders the circuit-source identity shared by every stage key
// — only what determines the netlist, so requests that differ in
// placement, analyses or models still share the synthesized-netlist
// cache entry (and every stage adds exactly the inputs it consumes).
// cacheSchema salts every key, so bumping the flow's computation version
// retires persisted artifact-store entries wholesale.
func (r *Request) identity() []any {
	base := []any{cacheSchema, r.Circuit, r.Netlist, r.Name}
	if len(r.Exprs) > 0 {
		outs := make([]string, 0, len(r.Exprs))
		for o := range r.Exprs {
			outs = append(outs, o)
		}
		sort.Strings(outs)
		for _, o := range outs {
			base = append(base, o+"="+r.Exprs[o])
		}
	}
	return base
}

// stageKey builds one stage's cache key from the circuit identity plus
// the stage-specific inputs.
func (r *Request) stageKey(parts ...any) string {
	return pipeline.Key(append(r.identity(), parts...)...)
}

// stimulusKeyParts renders a stimulus for cache keying in deterministic
// order.
func stimulusKeyParts(s Stimulus) []any {
	parts := []any{"pulse=" + s.Pulse}
	ins := make([]string, 0, len(s.Static))
	for i := range s.Static {
		ins = append(ins, i)
	}
	sort.Strings(ins)
	for _, i := range ins {
		parts = append(parts, fmt.Sprintf("%s=%v", i, s.Static[i]))
	}
	return parts
}

// ParseTech resolves a technology name ("cnfet" or "cmos", any case);
// unknown names return ErrUnknownTech.
func ParseTech(name string) (rules.Tech, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "cnfet":
		return rules.CNFET, nil
	case "cmos":
		return rules.CMOS, nil
	}
	return 0, fmt.Errorf("%w: %q (want cnfet or cmos)", ErrUnknownTech, name)
}

// ImmunityResult summarizes the immunity analysis of one technology: the
// deterministic critical-line certificate over every distinct cell of the
// design, plus an optional Monte Carlo sample.
type ImmunityResult struct {
	CellsChecked    int      `json:"cells_checked"`
	CriticalLines   int      `json:"critical_lines"`
	Violations      int      `json:"violations"`
	Immune          bool     `json:"immune"`
	VulnerableCells []string `json:"vulnerable_cells,omitempty"`
	MCTubes         int      `json:"mc_tubes,omitempty"`
	MCFailRate      float64  `json:"mc_fail_rate,omitempty"`

	// Variation is the composed functional yield of the whole design
	// under the request's variation model; nil when the model is zero
	// (which keeps zero-variation results byte-identical with
	// pre-variation runs).
	Variation *VariationYield `json:"variation,omitempty"`
}

// VariationYield composes the design's functional yield under CNT
// variations: the product over every cell instance's devices of the
// per-device count yield (no stuck-open devices) and alignment yield
// (no logic-breaking mispositioned tubes). composeVariationYield builds
// it; device.Variations holds the distribution semantics.
type VariationYield struct {
	// Devices and Tubes count the design's transistors and their
	// nominal conducting tubes across all instances.
	Devices int `json:"devices"`
	Tubes   int `json:"tubes"`
	// MeanBreakP is the tube-weighted mean probability that a
	// mispositioned tube breaks its cell's logic (0 for a design of
	// immune cells — the paper's layouts).
	MeanBreakP float64 `json:"mean_break_p"`
	// CountYield, AlignYield, FunctionalYield factor the design yield
	// by failure mode; FunctionalYield is their product.
	CountYield      float64 `json:"count_yield"`
	AlignYield      float64 `json:"align_yield"`
	FunctionalYield float64 `json:"functional_yield"`
}

// DelayEnsemble summarizes the per-design delay distribution measured
// by the variation ensemble stage: VarSamples transistor-level
// transients of the whole design, each with independently drawn device
// variations, through one cells.Ensemble.
type DelayEnsemble = cells.EnsembleStats

// STAReport summarizes one technology's static timing analysis: the
// levelized, slew-aware engine run over the placed design's extracted
// wire loads. Where the delay analysis simulates one stimulus at the
// transistor level, STA covers every path through NLDM table lookups in
// milliseconds.
type STAReport struct {
	// DelayS is the design delay: the worst primary-output arrival time.
	DelayS float64 `json:"delay_s"`
	// WorstNet names the latest primary output.
	WorstNet string `json:"worst_net"`
	// CriticalPath lists nets from a primary input to WorstNet.
	CriticalPath []string `json:"critical_path,omitempty"`
	// Levels is the design's logic depth; Instances its gate count.
	Levels    int `json:"levels"`
	Instances int `json:"instances"`
	// InstanceDelay gives each instance the delay of the arc on its own
	// worst input path, so summing along the critical path reproduces
	// DelayS.
	InstanceDelay InstanceDelays `json:"instance_delay,omitempty"`
}

// InstanceDelay is one instance's worst-path arc delay.
type InstanceDelay struct {
	Name   string
	DelayS float64
}

// InstanceDelays lists instance delays in increasing byte order of
// their names, each name once: the order encoding/json sorts map keys
// in. It renders as the JSON object {"name": delay, ...}.
type InstanceDelays []InstanceDelay

// Lookup returns the named instance's delay, and whether it is listed.
func (ds InstanceDelays) Lookup(name string) (float64, bool) {
	i, ok := slices.BinarySearchFunc(ds, name, func(d InstanceDelay, name string) int {
		return strings.Compare(d.Name, name)
	})
	if !ok {
		return 0, false
	}
	return ds[i].DelayS, true
}

// TechResult carries one technology's requested analyses.
type TechResult struct {
	Tech string `json:"tech"`

	// Placement metrics (area analysis).
	AreaLam2    float64 `json:"area_lam2,omitempty"`
	WidthLam    float64 `json:"width_lam,omitempty"`
	HeightLam   float64 `json:"height_lam,omitempty"`
	Utilization float64 `json:"utilization,omitempty"`

	// Timing/energy (delay, energy analyses).
	DelayS  float64 `json:"delay_s,omitempty"`
	EnergyJ float64 `json:"energy_j,omitempty"`

	// VarDelay is the delay distribution under the request's variation
	// model (delay analysis with a non-zero count/diameter spread,
	// CNFET only).
	VarDelay *DelayEnsemble `json:"var_delay,omitempty"`

	// STA is the static timing report (sta analysis).
	STA *STAReport `json:"sta,omitempty"`

	Immunity *ImmunityResult `json:"immunity,omitempty"`

	// Liberty is the characterized .lib text (liberty analysis,
	// restricted to the cells the design uses).
	Liberty string `json:"liberty,omitempty"`

	// GDS is the placement's GDSII stream (gds analysis); base64 in
	// JSON per encoding/json convention.
	GDS []byte `json:"gds,omitempty"`

	// Placement is the in-process placement object for follow-on flow
	// steps; it does not serialize.
	Placement *place.Placement `json:"-"`
}

// StageTrace is the serializable record of one executed pipeline stage.
type StageTrace struct {
	Stage  string  `json:"stage"`
	Millis float64 `json:"ms"`
	Cached bool    `json:"cached,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// Result is the JSON-stable outcome of one Kit.Run job. Its STA,
// immunity and variation-delay reports are the kit's cached values,
// shared with every other job that reads them, so a Result is
// read-only. MarshalJSON and AppendIndent render it (render.go).
type Result struct {
	Circuit   string   `json:"circuit"`
	Instances int      `json:"instances"`
	Nets      int      `json:"nets"`
	Inputs    []string `json:"inputs"`
	Outputs   []string `json:"outputs"`

	// Techs holds one entry per requested technology, keyed by the
	// lower-case technology name.
	Techs map[string]*TechResult `json:"techs"`

	// Gains reports CMOS-over-CNFET ratios for the scalar analyses when
	// both technologies ran (keys "area", "delay", "energy").
	Gains map[string]float64 `json:"gains,omitempty"`

	// Stages traces every pipeline stage the job executed.
	Stages []StageTrace `json:"stages"`
}
