package flow

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/device"
	"cnfetdk/internal/immunity"
	"cnfetdk/internal/liberty"
	"cnfetdk/internal/logic"
	"cnfetdk/internal/pipeline"
	"cnfetdk/internal/place"
	"cnfetdk/internal/rules"
	"cnfetdk/internal/spice"
	"cnfetdk/internal/sta"
	"cnfetdk/internal/synth"
)

// Run executes one design-service job: it resolves the request's circuit
// (registry name, inline equations, or inline structural netlist), builds
// a stage graph covering every requested (technology, analysis) pair, and
// runs it on the kit's worker pool with every stage memoized in the kit's
// cache — identical concurrent jobs share one computation. ctx cancels
// the run between stages and between parallel items inside stages;
// completed stage results stay cached, so a rerun resumes rather than
// restarts. Errors wrap the typed sentinels (ErrUnknownCircuit,
// ErrUnknownTech, ErrBadRequest, ...) for errors.Is dispatch.
func (k *Kit) Run(ctx context.Context, req Request) (*Result, error) {
	rq, err := req.normalize()
	if err != nil {
		return nil, err
	}
	techs, stim, rows := rq.techs, rq.stim, rq.rows
	wireCap := req.WireCapPerNM
	if wireCap == 0 {
		wireCap = WireCapPerNM
	}
	mcAngle := req.MCAngleDeg
	if mcAngle == 0 {
		mcAngle = 15
	}
	// Resolve the placement default once so "" and "shelves" share
	// cache entries.
	placement := req.Placement
	if placement == "" {
		placement = "shelves"
	}
	stimKey := stimulusKeyParts(stim)
	// The variation model: an all-zero model takes the exact
	// pre-variation code paths (same stages, same keys, same results).
	// A non-zero count/diameter spread adds the CNFET delay-ensemble
	// stage; any non-zero channel makes the immunity stage compose the
	// functional yield.
	vr := req.variations()
	varSamples := req.VarSamples
	if varSamples == 0 {
		varSamples = DefaultVarSamples
	}
	spreadActive := vr.CountCV > 0 || vr.DiameterSigmaNM > 0
	want := map[Analysis]bool{}
	for _, a := range rq.analyses {
		want[a] = true
	}
	needPlace := want[AnalysisArea] || want[AnalysisDelay] || want[AnalysisSTA] ||
		want[AnalysisEnergy] || want[AnalysisGDS]
	needWire := want[AnalysisDelay] || want[AnalysisSTA] || want[AnalysisEnergy]

	g := pipeline.NewGraph(k.cache, k.workers).Trace(k.trace).StageTimeout(k.stageTimeout)
	// add registers a stage with its result codec — what makes the
	// result persistable in the cache's disk tier. Every stage runs
	// under its watchdog-bounded stage context (not the run context),
	// consults the kit's fault injector at "flow.stage.<name>" first,
	// and recovers panics into typed errors (pipeline.PanicError) inside
	// the graph runner.
	add := func(name, key string, codec pipeline.Codec, deps []string, run func(ctx context.Context, d map[string]any) (any, error)) {
		g.Add(pipeline.Stage{Name: name, Key: key, Codec: codec, Deps: deps,
			Run: func(sctx context.Context, d map[string]any) (any, error) {
				if err := k.faults.FaultCtx(sctx, "flow.stage."+name); err != nil {
					return nil, err
				}
				return run(sctx, d)
			}})
	}

	// The netlist stage is the one place a netlist is verified, by a proof
	// bounded by its stage context; the spec is never built on a hit.
	add("netlist", req.stageKey("netlist"), codecNetlist, nil, func(sctx context.Context, _ map[string]any) (any, error) {
		nl, err := rq.build()
		if err != nil || rq.spec == nil {
			return nl, err
		}
		if err := nl.Verify(sctx, rq.spec()); errors.Is(err, logic.ErrNodeBudget) {
			// A circuit too large to prove is the request's fault.
			return nil, fmt.Errorf("%w: %s: %w", ErrBadRequest, nl.Name, err)
		} else if err != nil {
			return nil, fmt.Errorf("flow: %s: %w", nl.Name, err)
		}
		return nl, nil
	})

	for _, tech := range techs {
		tech := tech
		tn := strings.ToLower(tech.String())
		lib, err := k.LibFor(tech)
		if err != nil {
			return nil, err
		}

		// rk pins the library's full design-rule set (digested once at
		// kit construction) into every per-tech stage key: with
		// persistent stores, entries must survive only as long as every
		// input that shaped them.
		rk := k.rulesKey[tech]

		// The resolved scheme is a per-tech stage input: CMOS always
		// places as rows, so CNFET-only placement changes leave every
		// CMOS cache entry valid.
		scheme := placement
		if tech == rules.CMOS {
			scheme = "rows"
		}
		placeStage := "place/" + tn
		if needPlace {
			add(placeStage, req.stageKey("place", tn, rk, scheme, rows), placementCodec(lib), []string{"netlist"}, func(_ context.Context, d map[string]any) (any, error) {
				return placeScheme(lib, d["netlist"].(*synth.Netlist), scheme, rows)
			})
		}
		if needWire {
			add("wire/"+tn, req.stageKey("wire", tn, rk, scheme, rows, wireCap), codecWireCaps, []string{"netlist", placeStage}, func(_ context.Context, d map[string]any) (any, error) {
				return WireCapsWith(d[placeStage].(*place.Placement), d["netlist"].(*synth.Netlist), lib.Rules.LambdaNM, wireCap), nil
			})
		}
		if want[AnalysisDelay] {
			add("delay/"+tn, req.stageKey(append([]any{"delay", tn, rk, scheme, rows, wireCap}, stimKey...)...), codecScalar, []string{"netlist", "wire/" + tn}, func(_ context.Context, d map[string]any) (any, error) {
				dly, err := k.runDelay(lib, d["netlist"].(*synth.Netlist), d["wire/"+tn].(map[string]float64), stim)
				if err != nil {
					return nil, fmt.Errorf("flow: %s delay: %w", tech, err)
				}
				return dly, nil
			})
			if tech == rules.CNFET && spreadActive {
				// The ensemble key pins only the channels that move
				// timing (count, diameter): alignment sweeps share one
				// vardelay entry per spread point.
				add("vardelay/"+tn, req.stageKey(append([]any{"vardelay", tn, rk, scheme, rows, wireCap,
					vr.CountCV, vr.DiameterSigmaNM, varSamples, req.Seed}, stimKey...)...),
					codecVarDelay, []string{"netlist", "wire/" + tn}, func(sctx context.Context, d map[string]any) (any, error) {
						de, err := k.runVarDelay(sctx, lib, d["netlist"].(*synth.Netlist), d["wire/"+tn].(map[string]float64), stim, vr, varSamples, req.Seed)
						if err != nil {
							return nil, fmt.Errorf("flow: %s vardelay: %w", tech, err)
						}
						return de, nil
					})
			}
		}
		if want[AnalysisSTA] || want[AnalysisLiberty] {
			// The NLDM stage characterizes exactly the cells the design
			// uses (the expensive transistor-level grid, heavily cached);
			// the sta stage evaluates it in a millisecond table-lookup
			// pass over the placed design's extracted wire loads, and the
			// liberty stage renders it.
			add("nldm/"+tn, req.stageKey("nldm", tn, rk), codecNLDM, []string{"netlist"}, func(sctx context.Context, d map[string]any) (any, error) {
				m, err := k.runNLDM(sctx, lib, d["netlist"].(*synth.Netlist))
				if err != nil {
					return nil, fmt.Errorf("flow: %s nldm: %w", tech, err)
				}
				return m, nil
			})
		}
		if want[AnalysisSTA] {
			add("sta/"+tn, req.stageKey("sta", tn, rk, scheme, rows, wireCap), codecSTA, []string{"netlist", "wire/" + tn, "nldm/" + tn}, func(_ context.Context, d map[string]any) (any, error) {
				rep, err := runSTA(d["netlist"].(*synth.Netlist), d["nldm/"+tn].(*liberty.Model), d["wire/"+tn].(map[string]float64))
				if err != nil {
					return nil, fmt.Errorf("flow: %s sta: %w", tech, err)
				}
				return rep, nil
			})
		}
		if want[AnalysisEnergy] {
			add("energy/"+tn, req.stageKey(append([]any{"energy", tn, rk, scheme, rows, wireCap}, stimKey...)...), codecScalar, []string{"netlist", "wire/" + tn}, func(_ context.Context, d map[string]any) (any, error) {
				e, err := runEnergy(tech, d["netlist"].(*synth.Netlist), d["wire/"+tn].(map[string]float64), stim)
				if err != nil {
					return nil, fmt.Errorf("flow: %s energy: %w", tech, err)
				}
				return e, nil
			})
		}
		if want[AnalysisImmunity] && tech == rules.CNFET {
			immKey := []any{"immunity", tn, rk, req.MCTubes, mcAngle, req.Seed}
			if !vr.Zero() {
				// Yield composition reads the count CV and alignment
				// probability; the diameter spread moves timing only.
				immKey = append(immKey, "var", vr.CountCV, vr.AlignmentP)
			}
			add("immunity/"+tn, req.stageKey(immKey...), codecImmunity, []string{"netlist"}, func(sctx context.Context, d map[string]any) (any, error) {
				return k.runImmunity(sctx, lib, d["netlist"].(*synth.Netlist), req.MCTubes, mcAngle, req.Seed, vr)
			})
		}
		if want[AnalysisLiberty] {
			add("liberty/"+tn, req.stageKey("liberty", tn, rk), codecLiberty, []string{"nldm/" + tn}, func(_ context.Context, d map[string]any) (any, error) {
				var buf bytes.Buffer
				if err := d["nldm/"+tn].(*liberty.Model).Write(&buf); err != nil {
					return nil, err
				}
				return buf.String(), nil
			})
		}
		if want[AnalysisGDS] {
			add("gds/"+tn, req.stageKey("gds", tn, rk, scheme, rows), codecGDS, []string{"netlist", placeStage}, func(_ context.Context, d map[string]any) (any, error) {
				nl := d["netlist"].(*synth.Netlist)
				var buf bytes.Buffer
				top := gdsTopName(nl.Name, tech, scheme)
				if err := WritePlacementGDS(&buf, lib, d[placeStage].(*place.Placement), top); err != nil {
					return nil, err
				}
				return buf.Bytes(), nil
			})
		}
	}

	results, err := g.RunCtx(ctx)
	if err != nil {
		return nil, err
	}

	res := &Result{Techs: map[string]*TechResult{}}
	nl := results["netlist"].Value.(*synth.Netlist)
	res.Circuit = nl.Name
	res.Instances = len(nl.Instances)
	res.Nets = nl.NetCount()
	res.Inputs = append([]string(nil), nl.Inputs...)
	res.Outputs = append([]string(nil), nl.Outputs...)
	for _, tech := range techs {
		tn := strings.ToLower(tech.String())
		tr := &TechResult{Tech: tn}
		if r, ok := results["place/"+tn]; ok {
			p := r.Value.(*place.Placement)
			tr.Placement = p
			if want[AnalysisArea] {
				tr.AreaLam2 = p.Area()
				tr.WidthLam = p.Width.Lambdas()
				tr.HeightLam = p.Height.Lambdas()
				tr.Utilization = p.Utilization()
			}
		}
		if r, ok := results["delay/"+tn]; ok {
			tr.DelayS = r.Value.(float64)
		}
		if r, ok := results["vardelay/"+tn]; ok {
			tr.VarDelay = r.Value.(*DelayEnsemble)
		}
		if r, ok := results["sta/"+tn]; ok {
			tr.STA = r.Value.(*STAReport)
		}
		if r, ok := results["energy/"+tn]; ok {
			tr.EnergyJ = r.Value.(float64)
		}
		if r, ok := results["immunity/"+tn]; ok {
			tr.Immunity = r.Value.(*ImmunityResult)
		}
		if r, ok := results["liberty/"+tn]; ok {
			tr.Liberty = r.Value.(string)
		}
		if r, ok := results["gds/"+tn]; ok {
			tr.GDS = r.Value.([]byte)
		}
		res.Techs[tn] = tr
	}
	if cm, cn := res.Techs["cmos"], res.Techs["cnfet"]; cm != nil && cn != nil {
		res.Gains = map[string]float64{}
		if want[AnalysisArea] && cn.AreaLam2 > 0 {
			res.Gains["area"] = cm.AreaLam2 / cn.AreaLam2
		}
		if want[AnalysisDelay] && cn.DelayS > 0 {
			res.Gains["delay"] = cm.DelayS / cn.DelayS
		}
		if want[AnalysisEnergy] && cn.EnergyJ > 0 {
			res.Gains["energy"] = cm.EnergyJ / cn.EnergyJ
		}
		if want[AnalysisSTA] && cm.STA != nil && cn.STA != nil && cn.STA.DelayS > 0 {
			res.Gains["sta"] = cm.STA.DelayS / cn.STA.DelayS
		}
		if len(res.Gains) == 0 {
			res.Gains = nil
		}
	}
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := results[name]
		st := StageTrace{Stage: name, Millis: float64(r.Dur.Microseconds()) / 1000, Cached: r.Cached}
		if r.Err != nil {
			st.Error = r.Err.Error()
		}
		res.Stages = append(res.Stages, st)
	}
	return res, nil
}

// placeScheme places a netlist under an already-resolved scheme ("rows"
// or "shelves" — Run resolves defaults and the CMOS-always-rows rule
// before keying the stage, so key and computation cannot diverge). rows
// pins the row count of rows-based placements (0 = auto).
func placeScheme(lib *cells.Library, nl *synth.Netlist, scheme string, rows int) (*place.Placement, error) {
	if scheme == "rows" {
		return place.Rows(lib, nl, rows)
	}
	return place.Shelves(lib, nl, 0)
}

// gdsTopName renders the GDS top-structure name from the resolved
// scheme: design name plus S1/S2 for CNFET rows/shelves, CMOS for the
// reference technology.
func gdsTopName(design string, tech rules.Tech, scheme string) string {
	suffix := "S2"
	if scheme == "rows" {
		suffix = "S1"
	}
	if tech == rules.CMOS {
		suffix = "CMOS"
	}
	return strings.ToUpper(design) + "_" + suffix
}

// errNoStimulus refuses a delay/energy request whose stimulus names no
// pulse input.
var errNoStimulus = fmt.Errorf("%w: delay/energy analysis needs a stimulus (pulse input + static levels)", ErrBadRequest)

// checkStimulus validates a stimulus against a design's primary inputs:
// the pulse must be a primary input and every input must be assigned
// exactly once. normalize runs it on every request's stimulus but a
// registry circuit's default.
func checkStimulus(design string, inputs []string, stim Stimulus) error {
	if stim.Pulse == "" {
		return errNoStimulus
	}
	isInput := make(map[string]bool, len(inputs))
	for _, in := range inputs {
		isInput[in] = true
	}
	if !isInput[stim.Pulse] {
		return fmt.Errorf("%w: pulse input %q is not a primary input of %s", ErrBadRequest, stim.Pulse, design)
	}
	for in := range stim.Static {
		if !isInput[in] {
			return fmt.Errorf("%w: static input %q is not a primary input of %s", ErrBadRequest, in, design)
		}
		if in == stim.Pulse {
			return fmt.Errorf("%w: input %q is both static and pulsed", ErrBadRequest, in)
		}
	}
	for _, in := range inputs {
		if _, ok := stim.Static[in]; !ok && in != stim.Pulse {
			return fmt.Errorf("%w: input %q not covered by the stimulus", ErrBadRequest, in)
		}
	}
	return nil
}

// stimulusLevels resolves a stimulus, admitted by checkStimulus, into
// the logic level of every net with the pulse input low (first result)
// and high (second).
func stimulusLevels(nl *synth.Netlist, stim Stimulus) (map[string]bool, map[string]bool, error) {
	var levels [2]map[string]bool
	env := make(map[string]bool, len(stim.Static)+1)
	maps.Copy(env, stim.Static)
	for i, pulseHigh := range []bool{false, true} {
		env[stim.Pulse] = pulseHigh
		var err error
		if levels[i], err = nl.Evaluate(env); err != nil {
			return nil, nil, err
		}
	}
	return levels[0], levels[1], nil
}

// runDelay measures the average stimulus-to-output propagation delay at
// the transistor level: static inputs at DC, the pulse input driven with
// a full cycle, and every toggling primary output measured — inverting
// outputs via the standard propagation-delay pair, non-inverting outputs
// via both same-direction edges.
func (k *Kit) runDelay(lib *cells.Library, nl *synth.Netlist, wire map[string]float64, stim Stimulus) (float64, error) {
	loV, hiV, err := stimulusLevels(nl, stim)
	if err != nil {
		return 0, err
	}
	ckt, _, err := k.BuildCircuit(lib, nl, wire)
	if err != nil {
		return 0, err
	}
	period := addStimulus(ckt, stim)
	opts := spice.DefaultOptions()
	opts.Inject = k.faults
	r, err := ckt.Transient(period, delaySteps, opts, stimProbes(nl, stim, loV, hiV))
	if err != nil {
		return 0, err
	}
	return measureStimDelay(r, nl, stim, loV, hiV)
}

// runEnergy evaluates the per-cycle switching energy under the stimulus
// with the calibrated gate-energy model: toggling nets are found by logic
// simulation of the pulse cycle, each toggling gate output contributes
// its technology's per-cycle energy scaled by drive, plus wire energy
// over the placed design's net capacitances (the wire stage's value).
func runEnergy(tech rules.Tech, nl *synth.Netlist, wire map[string]float64, stim Stimulus) (float64, error) {
	loV, hiV, err := stimulusLevels(nl, stim)
	if err != nil {
		return 0, err
	}
	fo4 := device.DefaultFO4()
	nOpt := fo4.OptimalN(60)
	total := 0.0
	for _, inst := range nl.Instances {
		out := inst.Conns["OUT"]
		if loV[out] == hiV[out] {
			continue // no switching on this arc
		}
		drive := driveOf(inst.Cell)
		var gate float64
		if tech == rules.CNFET {
			gate = fo4.EnergyFJ(nOpt) * 1e-15 * drive
		} else {
			gate = device.CMOSEnergyfJ * 1e-15 * drive
		}
		total += gate + wire[out]*device.Vdd*device.Vdd
	}
	return total, nil
}

// runImmunity certifies every distinct CNFET cell of the design with the
// deterministic critical-line enumeration (one cached certificate per
// cell, see certify), plus an optional Monte Carlo sample of mcTubes
// tubes per network at up to mcAngle degrees of misalignment, seeded
// per design. A non-zero variation model additionally composes the
// design's functional yield from the per-cell verdicts: the cells'
// break probabilities (MC estimate when sampled, critical-line
// fraction otherwise) fold with the count and alignment distributions
// over every device of every instance.
func (k *Kit) runImmunity(ctx context.Context, lib *cells.Library, nl *synth.Netlist, mcTubes int, mcAngle float64, seed int64, vr device.Variations) (*ImmunityResult, error) {
	var names []string
	seen := map[string]bool{}
	for _, inst := range nl.Instances {
		if !seen[inst.Cell] {
			seen[inst.Cell] = true
			names = append(names, inst.Cell)
		}
	}
	sort.Strings(names)

	type verdict struct {
		name      string
		checked   int
		bad       int
		mcChecked int
		mcBad     int
	}
	verdicts, err := pipeline.MapCtx(ctx, k.workers, names, func(i int, name string) (verdict, error) {
		c, err := lib.Get(name)
		if err != nil {
			return verdict{}, err
		}
		cert, err := k.certify(ctx, c)
		if err != nil {
			return verdict{}, err
		}
		v := verdict{name: name, checked: cert.Checked, bad: cert.Bad}
		if mcTubes > 0 {
			cc := immunity.NewCellChecker(c.Layout)
			// Derive the per-cell seed from the request seed and the
			// cell's index so the sample is reproducible at any worker
			// count.
			rng := rand.New(rand.NewSource(seed + int64(i)*0x9E3779B9))
			punMC, err := cc.PUN().MonteCarloCtx(ctx, mcTubes, mcAngle, rng, 1)
			if err != nil {
				return verdict{}, err
			}
			pdnMC, err := cc.PDN().MonteCarloCtx(ctx, mcTubes, mcAngle, rng, 1)
			if err != nil {
				return verdict{}, err
			}
			v.mcChecked = punMC.TubesChecked + pdnMC.TubesChecked
			v.mcBad = punMC.BadTubes + pdnMC.BadTubes
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	res := &ImmunityResult{CellsChecked: len(verdicts), Immune: true}
	mcBad := 0
	for _, v := range verdicts {
		res.CriticalLines += v.checked
		res.Violations += v.bad
		if v.bad > 0 {
			res.Immune = false
			res.VulnerableCells = append(res.VulnerableCells, v.name)
		}
		res.MCTubes += v.mcChecked
		mcBad += v.mcBad
	}
	if res.MCTubes > 0 {
		res.MCFailRate = float64(mcBad) / float64(res.MCTubes)
	}
	if !vr.Zero() {
		byCell := map[string]cellYieldInput{}
		for _, v := range verdicts {
			breakP := 0.0
			if mcTubes > 0 {
				if v.mcChecked > 0 {
					breakP = float64(v.mcBad) / float64(v.mcChecked)
				}
			} else if v.checked > 0 {
				breakP = float64(v.bad) / float64(v.checked)
			}
			c, err := lib.Get(v.name)
			if err != nil {
				return nil, err
			}
			byCell[v.name] = cellYieldInput{tubes: lib.DeviceTubes(c), breakP: breakP}
		}
		vy, err := composeVariationYield(lib, nl, vr, byCell)
		if err != nil {
			return nil, err
		}
		res.Variation = vy
	}
	return res, nil
}

// cellCert is one library cell's critical-line verdict over both of its
// networks: the lines checked and the lines that violate, the only
// numbers the immunity stage reads from immunity.VerifyImmunity.
type cellCert struct {
	Checked int `json:"checked"`
	Bad     int `json:"bad"`
}

// certify returns a library cell's critical-line verdict through the
// kit's cache. The verdict is a pure function of the technology, its
// design rules and the cell, so its key carries nothing else: concurrent
// immunity stages share one computation, and the memory and disk tiers
// serve it to every later stage, request, sweep point and process that
// meets the cell. A cancelled ctx fails the certificate, which the cache
// then evicts instead of storing.
func (k *Kit) certify(ctx context.Context, c *cells.Cell) (cellCert, error) {
	key := pipeline.Key(cacheSchema, "cert", c.Tech, k.rulesKey[c.Tech], c.FullName())
	v, _, err := k.cache.DoCodecCtx(ctx, key, codecCert, func() (any, error) {
		pun, pdn, err := immunity.VerifyImmunity(ctx, c.Layout)
		if err != nil {
			return nil, err
		}
		return cellCert{Checked: pun.TubesChecked + pdn.TubesChecked, Bad: pun.BadTubes + pdn.BadTubes}, nil
	})
	if err != nil {
		return cellCert{}, err
	}
	return v.(cellCert), nil
}

// runNLDM characterizes exactly the cells the design instantiates into
// the slew-aware NLDM model the sta stage evaluates and the liberty
// stage renders.
func (k *Kit) runNLDM(ctx context.Context, lib *cells.Library, nl *synth.Netlist) (*liberty.Model, error) {
	used := map[string]bool{}
	for _, inst := range nl.Instances {
		used[inst.Cell] = true
	}
	return liberty.Characterize(ctx, lib, nil, func(name string) bool { return used[name] }, k.workers)
}

// runSTA runs the levelized static timing engine over the netlist under
// the placement's extracted wire loads and snapshots the report, its
// instance delays sorted by name once here so no render sorts them.
func runSTA(nl *synth.Netlist, m *liberty.Model, wire map[string]float64) (*STAReport, error) {
	res, err := sta.Analyze(nl, m, wire)
	if err != nil {
		return nil, err
	}
	delays := make(InstanceDelays, 0, len(res.InstanceDelay))
	for _, name := range slices.Sorted(maps.Keys(res.InstanceDelay)) {
		delays = append(delays, InstanceDelay{Name: name, DelayS: res.InstanceDelay[name]})
	}
	return &STAReport{
		DelayS:        res.WorstArrivalS,
		WorstNet:      res.WorstNet,
		CriticalPath:  res.CriticalPath,
		Levels:        res.Levels,
		Instances:     len(nl.Instances),
		InstanceDelay: delays,
	}, nil
}
