package flow

// The job-response renderer against encoding/json: every registry
// circuit's result, variation results and hand-built shapes render to
// encoding/json's bytes in both layouts, a NaN or ±Inf fails both, and
// instance delays render and read back as the map they replace.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// plainResult is Result without its methods: encoding/json renders it
// by reflection, which is the oracle the renderer is held to. Instance
// delays inside it render through InstanceDelays.MarshalJSON, which
// checkRender holds to the map it replaces.
type plainResult Result

// oracle renders r through encoding/json: compact as json.Marshal
// writes it, and indented as cnfetd wrote it before the renderer.
func oracle(r *Result) (compact, indented []byte, err error) {
	if compact, err = json.Marshal((*plainResult)(r)); err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode((*plainResult)(r)); err != nil {
		return nil, nil, err
	}
	return compact, buf.Bytes(), nil
}

// delaysMap is the map an InstanceDelays replaces.
func delaysMap(ds InstanceDelays) map[string]float64 {
	if ds == nil {
		return nil
	}
	m := make(map[string]float64, len(ds))
	for _, d := range ds {
		m[d.Name] = d.DelayS
	}
	return m
}

// firstDiff describes where got and want first differ.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(0, i-40)
	return fmt.Sprintf("at byte %d: got %q, want %q", i, got[from:min(len(got), i+40)], want[from:min(len(want), i+40)])
}

// renderEqual reports whether both layouts of r match the oracle's
// bytes, or whether both encoders refuse r; what says which differs.
func renderEqual(r *Result) (ok bool, what string) {
	wantC, wantI, werr := oracle(r)
	gotC, cerr := r.MarshalJSON()
	gotI, ierr := r.AppendIndent(nil)
	viaMarshal, merr := json.Marshal(r)
	switch {
	case werr != nil:
		if cerr == nil || ierr == nil || merr == nil {
			return false, fmt.Sprintf("encoding/json fails (%v) but the renderer does not (%v, %v, %v)", werr, cerr, ierr, merr)
		}
		return true, ""
	case cerr != nil || ierr != nil || merr != nil:
		return false, fmt.Sprintf("the renderer fails (%v, %v, %v) but encoding/json does not", cerr, ierr, merr)
	case !bytes.Equal(gotC, wantC):
		return false, "compact " + firstDiff(gotC, wantC)
	case !bytes.Equal(gotI, wantI):
		return false, "indented " + firstDiff(gotI, wantI)
	case !bytes.Equal(viaMarshal, wantC):
		return false, "json.Marshal " + firstDiff(viaMarshal, wantC)
	}
	for _, tn := range slices.Sorted(maps.Keys(r.Techs)) {
		tr := r.Techs[tn]
		if tr == nil || tr.STA == nil {
			continue
		}
		got, gerr := json.Marshal(tr.STA.InstanceDelay)
		want, werr := json.Marshal(delaysMap(tr.STA.InstanceDelay))
		if (gerr != nil) != (werr != nil) || !bytes.Equal(got, want) {
			return false, fmt.Sprintf("%s instance delays: %v / %v, %s", tn, gerr, werr, firstDiff(got, want))
		}
	}
	return true, ""
}

func checkRender(t *testing.T, name string, r *Result) {
	t.Helper()
	if ok, what := renderEqual(r); !ok {
		t.Errorf("%s: %s", name, what)
	}
}

var registryRes struct {
	once sync.Once
	res  map[string]*Result
	err  error
}

// registryResults runs every registry circuit on the shared kit, once
// per test binary, on shelves and on rows with area, sta, immunity,
// liberty and gds, keyed "circuit/placement": the results the contract
// corpus pins (TestContractCorpus) and the renderer is held to. Their
// sta and liberty analyses come from the package's one characterization
// (registryModels), computed as the sta and liberty stages compute
// them, instead of one nldm stage per circuit. The results are shared,
// so read-only.
func registryResults(t *testing.T) map[string]*Result {
	t.Helper()
	k := kit(t)
	nls, models := registryModels(t)
	rr := &registryRes
	rr.once.Do(func() {
		rr.res = map[string]*Result{}
		for i, c := range Circuits() {
			for _, placement := range []string{"shelves", "rows"} {
				res, err := k.Run(context.Background(), Request{Circuit: c.Name, Placement: placement,
					Analyses: []Analysis{AnalysisArea, AnalysisImmunity, AnalysisGDS}})
				if err != nil {
					rr.err = err
					return
				}
				for tn, tr := range res.Techs {
					tech, err := ParseTech(tn)
					if err != nil {
						rr.err = err
						return
					}
					lib, err := k.LibFor(tech)
					if err != nil {
						rr.err = err
						return
					}
					m := circuitModel(models[tech], nls[i])
					wire := WireCapsWith(tr.Placement, nls[i], lib.Rules.LambdaNM, WireCapPerNM)
					if tr.STA, rr.err = runSTA(nls[i], m, wire); rr.err != nil {
						return
					}
					var text bytes.Buffer
					if rr.err = m.Write(&text); rr.err != nil {
						return
					}
					tr.Liberty = text.String()
				}
				res.Gains["sta"] = res.Techs["cmos"].STA.DelayS / res.Techs["cnfet"].STA.DelayS
				rr.res[c.Name+"/"+placement] = res
			}
		}
	})
	if rr.err != nil {
		t.Fatal(rr.err)
	}
	return rr.res
}

// TestResultJSONMatchesEncodingJSON holds the renderer to encoding/json
// byte for byte: every registry result the contract corpus pins
// (registryResults); delay and energy on rca4 and mult4, with variation
// ensembles on fulladder and mux2; and hand-built shapes (nil and empty
// slices and maps, a nil TechResult, -0, the float format boundaries,
// escapes, a stage error, NaN and ±Inf).
func TestResultJSONMatchesEncodingJSON(t *testing.T) {
	k := kit(t)
	ctx := context.Background()
	results := registryResults(t)
	for _, name := range slices.Sorted(maps.Keys(results)) {
		checkRender(t, name, results[name])
	}
	// The transient rows share their delays and ensembles with other
	// tests of the package on the shared kit (the corpus's delay rows,
	// TestVariationDelayEnsemble), so under -race they cost little
	// beyond the fulladder ensemble.
	for _, req := range []Request{
		{Circuit: "fulladder", CNTCountCV: 0.1, VarSamples: 2, Seed: 3},
		{Circuit: "mux2", CNTCountCV: 0.2, DiameterSigmaNM: 0.05, VarSamples: 4, Seed: 3},
		{Circuit: "rca4"},
		{Circuit: "mult4"},
	} {
		req.Analyses = []Analysis{AnalysisDelay, AnalysisEnergy}
		res, err := k.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if req.CNTCountCV > 0 && res.Techs["cnfet"].VarDelay == nil {
			t.Fatalf("%s: no delay ensemble", req.Circuit)
		}
		checkRender(t, req.Circuit+" delay,energy", res)
	}

	for name, r := range oddResults() {
		checkRender(t, name, r)
	}
	for name, r := range unrenderableResults() {
		if _, _, err := oracle(r); err == nil {
			t.Fatalf("%s: encoding/json renders it", name)
		}
		checkRender(t, name, r)
	}

	// A fully populated result renders every JSON key of the type tree,
	// so a field added without renderer support fails here.
	full := fullResult()
	checkRender(t, "full", full)
	b, err := full.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(b, &tree); err != nil {
		t.Fatal(err)
	}
	checkEveryKey(t, "result", reflect.TypeOf(Result{}), tree)
}

// oddResults are the hand-built edge cases of the byte contract.
func oddResults() map[string]*Result {
	odd := "<a&b>\x00\x1f\t\n\"\\\x7f\xff\xfe  é"
	tiny := math.Nextafter(1e-6, 0)
	huge := math.Nextafter(1e21, 0)
	return map[string]*Result{
		"zero": {},
		"empty": {Inputs: []string{}, Outputs: []string{}, Techs: map[string]*TechResult{},
			Gains: map[string]float64{}, Stages: []StageTrace{}},
		"nil tech": {Techs: map[string]*TechResult{"cmos": nil, "cnfet": {Tech: "cnfet"}}},
		"empty sta": {Techs: map[string]*TechResult{"cnfet": {STA: &STAReport{CriticalPath: []string{},
			InstanceDelay: InstanceDelays{}}, Immunity: &ImmunityResult{VulnerableCells: []string{}}, GDS: []byte{}}}},
		"negative zero": {Techs: map[string]*TechResult{"cnfet": {AreaLam2: math.Copysign(0, -1),
			STA: &STAReport{DelayS: math.Copysign(0, -1), InstanceDelay: InstanceDelays{{"u", math.Copysign(0, -1)}}}}},
			Gains: map[string]float64{"area": math.Copysign(0, -1)}, Stages: []StageTrace{{Millis: math.Copysign(0, -1)}}},
		"float boundaries": {Techs: map[string]*TechResult{"cnfet": {
			AreaLam2: 5e-324, WidthLam: 1e-6, HeightLam: tiny, Utilization: -tiny,
			DelayS: 1e21, EnergyJ: huge,
			VarDelay: &DelayEnsemble{Samples: -1, MeanS: -1e21, SigmaS: -huge, MinS: 1e-7, MaxS: math.MaxFloat64},
			STA: &STAReport{DelayS: 1.5e-300, InstanceDelay: InstanceDelays{
				{"a", 1e20}, {"b", 123456789012345680000}, {"c", 0.000001}, {"d", 1e-9}, {"e", -math.SmallestNonzeroFloat64}}},
		}}, Gains: map[string]float64{"area": 1.0 / 3, "delay": 100, "sta": 2.5e-8}},
		"escapes": {Circuit: odd, Inputs: []string{odd, ""}, Outputs: []string{"<", ">", "&"},
			Techs: map[string]*TechResult{odd: {Tech: odd, Liberty: odd,
				STA:      &STAReport{WorstNet: odd, CriticalPath: []string{odd}, InstanceDelay: InstanceDelays{{"", 1}, {"<u>", 2}, {odd, 3}, {"\xff", 4}}},
				Immunity: &ImmunityResult{VulnerableCells: []string{odd}}}},
			Gains:  map[string]float64{odd: 1, "": 2},
			Stages: []StageTrace{{Stage: odd, Error: odd}}},
		"stage error": {Circuit: "c", Stages: []StageTrace{
			{Stage: "netlist", Millis: 1.25, Cached: true},
			{Stage: "sta/cnfet", Millis: 0.001, Error: "flow: CNFET sta: context deadline exceeded"}}},
		"gds padding": {Techs: map[string]*TechResult{"a": {GDS: []byte{0}}, "b": {GDS: []byte{1, 2}},
			"c": {GDS: []byte{0xfb, 0xff, 0xfe}}, "d": {GDS: []byte("\x00\x06\x00\x02\x02\x58")}}},
	}
}

// unrenderableResults carry a NaN or ±Inf, which both encoders refuse.
func unrenderableResults() map[string]*Result {
	nan, inf := math.NaN(), math.Inf(1)
	return map[string]*Result{
		"nan gain":           {Gains: map[string]float64{"delay": nan}},
		"inf area":           {Techs: map[string]*TechResult{"cmos": {AreaLam2: inf}}},
		"-inf stage":         {Stages: []StageTrace{{Millis: math.Inf(-1)}}},
		"nan instance delay": {Techs: map[string]*TechResult{"cnfet": {STA: &STAReport{InstanceDelay: InstanceDelays{{"u", nan}}}}}},
		"inf yield":          {Techs: map[string]*TechResult{"cnfet": {Immunity: &ImmunityResult{Variation: &VariationYield{AlignYield: inf}}}}},
		"nan ensemble":       {Techs: map[string]*TechResult{"cnfet": {VarDelay: &DelayEnsemble{SigmaS: nan}}}},
	}
}

// fullResult sets every field of the Result tree to a non-empty value.
func fullResult() *Result {
	return &Result{
		Circuit: "full", Instances: 2, Nets: 5, Inputs: []string{"A", "B"}, Outputs: []string{"Y"},
		Techs: map[string]*TechResult{"cnfet": {
			Tech: "cnfet", AreaLam2: 180, WidthLam: 18, HeightLam: 10, Utilization: 0.75,
			DelayS: 2.1e-11, EnergyJ: 3.4e-16,
			VarDelay: &DelayEnsemble{Samples: 4, MeanS: 2e-11, SigmaS: 1e-12, MinS: 1.9e-11, MaxS: 2.2e-11},
			STA: &STAReport{DelayS: 5.3e-11, WorstNet: "Y", CriticalPath: []string{"A", "n1", "Y"}, Levels: 2, Instances: 2,
				InstanceDelay: InstanceDelays{{"u1", 2e-11}, {"u2", 3.3e-11}}},
			Immunity: &ImmunityResult{CellsChecked: 2, CriticalLines: 100, Violations: 1, Immune: true,
				VulnerableCells: []string{"NAND2_1X"}, MCTubes: 8, MCFailRate: 0.125,
				Variation: &VariationYield{Devices: 4, Tubes: 64, MeanBreakP: 0.01, CountYield: 0.99, AlignYield: 0.98, FunctionalYield: 0.97}},
			Liberty: "library (x) {}\n",
			GDS:     []byte{0, 6, 0, 2},
		}},
		Gains:  map[string]float64{"area": 1.6},
		Stages: []StageTrace{{Stage: "netlist", Millis: 0.5, Cached: true, Error: "e"}},
	}
}

// checkEveryKey walks the type typ and its decoded render v together,
// failing for each tagged field whose key v lacks.
func checkEveryKey(t *testing.T, path string, typ reflect.Type, v any) {
	t.Helper()
	switch {
	case typ == reflect.TypeOf(InstanceDelays(nil)):
		if obj, ok := v.(map[string]any); !ok || len(obj) == 0 {
			t.Errorf("%s: rendered %v, want an object of delays", path, v)
		}
		return
	case typ.Kind() == reflect.Pointer:
		checkEveryKey(t, path, typ.Elem(), v)
	case typ.Kind() == reflect.Struct:
		obj, ok := v.(map[string]any)
		if !ok {
			t.Errorf("%s: rendered %v, want an object", path, v)
			return
		}
		for i := range typ.NumField() {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "-" || !f.IsExported() {
				continue
			}
			if name == "" {
				name = f.Name
			}
			fv, ok := obj[name]
			if !ok {
				t.Errorf("%s: no %q key", path, name)
				continue
			}
			checkEveryKey(t, path+"."+name, f.Type, fv)
		}
	case typ.Kind() == reflect.Map:
		obj, _ := v.(map[string]any)
		if len(obj) == 0 {
			t.Errorf("%s: rendered %v, want a non-empty object", path, v)
		}
		for k, ev := range obj {
			checkEveryKey(t, path+"."+k, typ.Elem(), ev)
		}
	case typ.Kind() == reflect.Slice && typ.Elem().Kind() != reflect.Uint8:
		arr, _ := v.([]any)
		if len(arr) == 0 {
			t.Errorf("%s: rendered %v, want a non-empty array", path, v)
		}
		for i, ev := range arr {
			checkEveryKey(t, fmt.Sprintf("%s[%d]", path, i), typ.Elem(), ev)
		}
	}
}

// TestInstanceDelaysJSONRoundTrip: instance delays read back from their
// JSON object as the map they replace would, in name order, with a
// repeated name keeping its last value and null reading as nil; a whole
// job result reads back to the same bytes, as a fabric coordinator
// reads a worker's stream.
func TestInstanceDelaysJSONRoundTrip(t *testing.T) {
	for _, ds := range []InstanceDelays{nil, {}, {{"u1", 1e-11}}, {{"", -0.5}, {"a", 1e-7}, {"a<", 2}, {"b", 1e30}}} {
		b, err := json.Marshal(ds)
		if err != nil {
			t.Fatal(err)
		}
		var back InstanceDelays
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, ds) {
			t.Errorf("%s read back as %v, want %v", b, back, ds)
		}
	}
	var ds InstanceDelays
	if err := json.Unmarshal([]byte(`{"c":1,"a":2,"c":3,"b":4}`), &ds); err != nil {
		t.Fatal(err)
	}
	if want := (InstanceDelays{{"a", 2}, {"b", 4}, {"c", 3}}); !reflect.DeepEqual(ds, want) {
		t.Errorf("repeated keys read back as %v, want %v", ds, want)
	}
	if d, ok := ds.Lookup("b"); !ok || d != 4 {
		t.Errorf("Lookup(b) = %v, %v", d, ok)
	}
	if _, ok := ds.Lookup("bb"); ok {
		t.Error("Lookup found an unlisted name")
	}
	if err := json.Unmarshal([]byte(`null`), &ds); err != nil || ds != nil {
		t.Errorf("null read back as %v (err %v), want nil", ds, err)
	}
	if err := json.Unmarshal([]byte(`[1]`), &ds); err == nil {
		t.Error("an array read as instance delays")
	}
	if _, err := json.Marshal(InstanceDelays{{"b", 1}, {"a", 2}}); err == nil {
		t.Error("delays out of name order rendered")
	}

	res, err := kit(t).Run(context.Background(), Request{Circuit: "fulladder", Analyses: []Analysis{AnalysisArea, AnalysisSTA}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{res, fullResult()} {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var back Result
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		again, err := json.Marshal(&back)
		if err != nil || !bytes.Equal(again, b) {
			t.Errorf("%s: a result read back renders other bytes (err %v)", r.Circuit, err)
		}
	}
}

// fuzzBytes hands out fuzz input as the values a Result is built from,
// and zeros past its end.
type fuzzBytes []byte

func (b *fuzzBytes) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *fuzzBytes) flag() bool { return b.byte()&1 == 1 }

func (b *fuzzBytes) count(n byte) int { return int(b.byte() % n) }

func (b *fuzzBytes) int() int { return int(int16(uint16(b.byte())<<8 | uint16(b.byte()))) }

// float reads eight bytes as float64 bits, big-endian.
func (b *fuzzBytes) float() float64 {
	var bits uint64
	for range 8 {
		bits = bits<<8 | uint64(b.byte())
	}
	return math.Float64frombits(bits)
}

// str reads a length byte (mod 16) and that many bytes.
func (b *fuzzBytes) str() string {
	n := min(b.count(16), len(*b))
	s := string((*b)[:n])
	*b = (*b)[n:]
	return s
}

// strs reads a presence flag, then a count (mod 4) of strings.
func (b *fuzzBytes) strs() []string {
	if !b.flag() {
		return nil
	}
	ss := make([]string, b.count(4))
	for i := range ss {
		ss[i] = b.str()
	}
	return ss
}

// fuzzResult builds a Result from fuzz bytes: nil or present slices,
// maps and reports by flags, then strings, integers and float bits.
func fuzzResult(b *fuzzBytes) *Result {
	r := &Result{Circuit: b.str(), Instances: b.int(), Nets: b.int(), Inputs: b.strs(), Outputs: b.strs()}
	if b.flag() {
		r.Techs = map[string]*TechResult{}
		for range b.count(3) {
			name := b.str()
			if !b.flag() {
				r.Techs[name] = nil
				continue
			}
			tr := &TechResult{Tech: b.str()}
			has := b.byte()
			if has&1 != 0 {
				tr.AreaLam2, tr.WidthLam, tr.HeightLam, tr.Utilization = b.float(), b.float(), b.float(), b.float()
			}
			if has&2 != 0 {
				tr.DelayS, tr.EnergyJ = b.float(), b.float()
			}
			if has&4 != 0 {
				tr.VarDelay = &DelayEnsemble{Samples: b.int(), MeanS: b.float(), SigmaS: b.float(), MinS: b.float(), MaxS: b.float()}
			}
			if has&8 != 0 {
				s := &STAReport{DelayS: b.float(), WorstNet: b.str(), CriticalPath: b.strs(), Levels: b.int(), Instances: b.int()}
				if b.flag() {
					m := map[string]float64{}
					for range b.count(5) {
						m[b.str()] = b.float()
					}
					for _, name := range slices.Sorted(maps.Keys(m)) {
						s.InstanceDelay = append(s.InstanceDelay, InstanceDelay{Name: name, DelayS: m[name]})
					}
					if s.InstanceDelay == nil {
						s.InstanceDelay = InstanceDelays{}
					}
				}
				tr.STA = s
			}
			if has&16 != 0 {
				im := &ImmunityResult{CellsChecked: b.int(), CriticalLines: b.int(), Violations: b.int(), Immune: b.flag(),
					VulnerableCells: b.strs(), MCTubes: b.int(), MCFailRate: b.float()}
				if b.flag() {
					im.Variation = &VariationYield{Devices: b.int(), Tubes: b.int(), MeanBreakP: b.float(),
						CountYield: b.float(), AlignYield: b.float(), FunctionalYield: b.float()}
				}
				tr.Immunity = im
			}
			if has&32 != 0 {
				tr.Liberty = b.str()
			}
			if has&64 != 0 {
				tr.GDS = []byte(b.str())
			}
			r.Techs[name] = tr
		}
	}
	if b.flag() {
		r.Gains = map[string]float64{}
		for range b.count(4) {
			r.Gains[b.str()] = b.float()
		}
	}
	if b.flag() {
		r.Stages = []StageTrace{}
		for range b.count(4) {
			r.Stages = append(r.Stages, StageTrace{Stage: b.str(), Millis: b.float(), Cached: b.flag(), Error: b.str()})
		}
	}
	return r
}

// FuzzRenderResult holds both layouts of the renderer to encoding/json
// on a Result built from arbitrary bytes: the oracle's bytes, or an
// error from both encoders. The seed corpus
// (testdata/fuzz/FuzzRenderResult) holds a zero result, a fully
// populated one, one of escapes and float boundaries, and one with a
// NaN.
func FuzzRenderResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		if ok, what := renderEqual(fuzzResult(&b)); !ok {
			t.Fatal(what)
		}
	})
}
