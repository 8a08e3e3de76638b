package flow_test

// The contract corpus: one sha256 per artifact the kit serves or
// persists, one line each in testdata/contract.sha256. A JSON row hashes
// encoding/json's bytes, whose floats are the shortest text that parses
// back to the same float64, so for finite values equal text means equal
// bits; a binary row hashes the bytes the artifact store writes or the
// GDS stream served.
//
// Rows, by the test that checks them:
//   - TestContractCorpus: result/<circuit>/<placement>, the compact
//     Result JSON, Stages nil, of every registry circuit with area, sta,
//     immunity, liberty and gds (registryResults); netlist/<circuit>, the
//     flow/netlist@v2 entry; area/, placement/ and
//     gds/<circuit>/<tech>/<scheme>, each technology's area fields,
//     flow/placement@v2 entry and GDS bytes (CMOS always places as
//     rows); cell/<tech>/<cell>/<scheme>, every library cell exported
//     alone (flow.ExportCell); sweep/<name>, the canonical reports of
//     chaos.DefaultSpec and of fabricSTASpec; coopt/mux2, the canonical
//     front of ciCooptSpec;
//   - TestSTAReportBitsParity: sta/<circuit>/<tech>/<scheme>, each
//     technology's STA report;
//   - TestLibertyTextParity: liberty/<circuit>/<tech>, the .lib text;
//   - TestNLDMModelBitsParity: nldm/<circuit>/<tech>, the flow/nldm@v3
//     entry;
//   - TestLargeTransientDelaysBitIdentical: delay/ and
//     energy/<circuit>/<tech>, every circuit but mult8, whose
//     transients tier-1 cannot afford;
//   - TestImmunityResultGoldens: immunity/<circuit>/<seed>, the CNFET
//     ImmunityResult under immunityGoldenRequest;
//   - TestVarDelayBitsParity: vardelay/mux2, the delay ensemble under
//     varDelayPinRequest.
//
// There is no -update flag. A missing, moved or stale row fails its
// test, which prints the lines to paste or delete: every edit to the
// file is made by hand, and the change that makes it names the row and
// the reason.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cnfetdk/internal/chaos"
	"cnfetdk/internal/coopt"
	"cnfetdk/internal/flow"
	"cnfetdk/internal/gdsii"
	"cnfetdk/internal/layout"
	"cnfetdk/internal/rules"
	"cnfetdk/internal/sweep"
)

const corpusPath = "testdata/contract.sha256"

// corpusChildEnv names the file that a corpus test, re-executed in a
// child test binary, writes its fresh rows to. Only the tests set it.
const corpusChildEnv = "CNFETDK_CONTRACT_CHILD_ROWS"

// family computes the rows of the kinds it owns; a row's kind is its
// first path segment.
type family struct {
	test  string // the test that checks the family's rows
	kinds []string
	fresh bool
	rows  func(t *testing.T, k *flow.Kit, r rows)
}

// corpus is the table of row families. Every family runs on the
// package's shared kit. A fresh family is also recomputed on a fresh
// kit at one worker in a re-executed test binary and at four workers in
// process, and must match the file there too: that is the check that
// its bytes do not depend on the process or the worker count.
var corpus = []family{
	{"TestContractCorpus", []string{"result", "netlist"}, false, resultRows},
	{"TestContractCorpus", []string{"area", "placement", "gds"}, true, layoutRows},
	{"TestContractCorpus", []string{"cell"}, true, cellRows},
	{"TestContractCorpus", []string{"sweep", "coopt"}, false, sweepRows},
	{"TestSTAReportBitsParity", []string{"sta"}, false, staRows},
	{"TestLibertyTextParity", []string{"liberty"}, false, libertyRows},
	{"TestNLDMModelBitsParity", []string{"nldm"}, false, nldmRows},
	{"TestLargeTransientDelaysBitIdentical", []string{"delay", "energy"}, false, transientRows},
	{"TestImmunityResultGoldens", []string{"immunity"}, false, immunityRows},
	{"TestVarDelayBitsParity", []string{"vardelay"}, true, varDelayRows},
}

// TestContractCorpus checks the result, netlist, layout, cell, sweep
// and co-optimization rows, and holds the table to the file.
func TestContractCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes every registry cell and runs three sweeps")
	}
	checkCorpus(t)
	if os.Getenv(corpusChildEnv) == "" {
		checkOwners(t)
	}
}

// TestSTAReportBitsParity checks every registry circuit's STA report on
// both technologies.
func TestSTAReportBitsParity(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes every registry cell")
	}
	checkCorpus(t)
}

// TestLibertyTextParity checks every registry circuit's .lib text on
// both technologies byte for byte.
func TestLibertyTextParity(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes every registry cell")
	}
	checkCorpus(t)
}

// TestNLDMModelBitsParity checks the bits of every characterized number
// of every registry circuit's nldm model on both technologies.
func TestNLDMModelBitsParity(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes every registry cell")
	}
	checkCorpus(t)
}

// TestLargeTransientDelaysBitIdentical checks the delay and energy of
// every registry circuit tier-1 can simulate.
func TestLargeTransientDelaysBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	checkCorpus(t)
}

// TestImmunityResultGoldens checks every registry circuit's CNFET
// ImmunityResult at two seeds.
func TestImmunityResultGoldens(t *testing.T) {
	checkCorpus(t)
}

// TestVarDelayBitsParity checks mux2's var_delay distribution on the
// shared kit, at one worker in a child process and at four in process.
func TestVarDelayBitsParity(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	checkCorpus(t)
}

// checkCorpus computes the rows of the families t's test checks and
// compares them with the lines of the file of the kinds those families
// own. In the child of childRows it writes its fresh rows instead.
func checkCorpus(t *testing.T) {
	if out := os.Getenv(corpusChildEnv); out != "" {
		writeRows(t, out, freshRows(t, 1))
		return
	}
	owned := map[string]bool{}
	got, fresh := rows{}, rows{}
	k := flow.SharedKit(t)
	for _, f := range familiesOf(t) {
		for _, kind := range f.kinds {
			owned[kind] = true
		}
		if f.fresh {
			f.rows(t, k, fresh)
		} else {
			f.rows(t, k, got)
		}
	}
	maps.Copy(got, fresh)
	for row := range got {
		if !owned[kindOf(row)] {
			t.Fatalf("row %s is of a kind no family of %s owns", row, t.Name())
		}
	}
	want := rows{}
	for row, sum := range readRows(t, corpusPath) {
		if owned[kindOf(row)] {
			want[row] = sum
		}
	}
	if diff := diffRows(want, got); diff != "" {
		t.Errorf("%s does not match the served bytes:\n%s", corpusPath, diff)
	}
	if len(fresh) == 0 {
		return
	}
	wantFresh := rows{}
	for row := range fresh {
		wantFresh[row] = want[row]
	}
	for where, r := range map[string]rows{
		"a re-executed test binary at one worker": childRows(t),
		"a fresh kit at four workers":             freshRows(t, 4),
	} {
		if diff := diffRows(wantFresh, r); diff != "" {
			t.Errorf("on %s, the fresh rows do not match %s:\n%s", where, corpusPath, diff)
		}
	}
}

// checkOwners holds the table to the file and to the package: each
// kind has one family, each line of the file is of a family's kind, and
// each family names a test of the package, so no row goes unchecked.
func checkOwners(t *testing.T) {
	owner := map[string]string{}
	for _, f := range corpus {
		for _, kind := range f.kinds {
			if _, dup := owner[kind]; dup {
				t.Errorf("two families own kind %s", kind)
			}
			owner[kind] = f.test
		}
	}
	for row := range readRows(t, corpusPath) {
		if _, ok := owner[kindOf(row)]; !ok {
			t.Errorf("%s: no family computes row %s; delete its line", corpusPath, row)
		}
	}
	out, err := exec.Command(os.Args[0], "-test.list=^Test").Output()
	if err != nil {
		t.Fatalf("listing the package's tests: %v", err)
	}
	tests := strings.Fields(string(out))
	for _, f := range corpus {
		if !slices.Contains(tests, f.test) {
			t.Errorf("family %v names %s, which is not a test of the package", f.kinds, f.test)
		}
	}
}

// familiesOf lists the families t's test checks.
func familiesOf(t *testing.T) []family {
	var fs []family
	for _, f := range corpus {
		if f.test == t.Name() {
			fs = append(fs, f)
		}
	}
	if len(fs) == 0 {
		t.Fatalf("no family of the corpus names %s", t.Name())
	}
	return fs
}

func kindOf(row string) string {
	kind, _, _ := strings.Cut(row, "/")
	return kind
}

// rows maps a row to the hex sha256 of its bytes.
type rows map[string]string

func (r rows) add(t *testing.T, row string, blob []byte) {
	t.Helper()
	if _, dup := r[row]; dup {
		t.Fatalf("row %s computed twice", row)
	}
	sum := sha256.Sum256(blob)
	r[row] = hex.EncodeToString(sum[:])
}

// addJSON hashes v's encoding/json bytes.
func (r rows) addJSON(t *testing.T, row string, v any) {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: %v", row, err)
	}
	r.add(t, row, blob)
}

// techScheme is the scheme a technology was placed with under a
// requested placement: CMOS always places as rows.
func techScheme(tn, placement string) string {
	if tn == "cmos" {
		return "rows"
	}
	return placement
}

// placements are the two placements every registry design runs on.
var placements = []string{"shelves", "rows"}

// resultRows pins the memoized registry results, per circuit and
// placement, and each circuit's netlist entry.
func resultRows(t *testing.T, k *flow.Kit, r rows) {
	results := flow.RegistryResults(t)
	// The memoized results take sta and liberty from the test's one
	// characterization. fulladder's, served through the nldm, sta and
	// liberty stages, must render to the same bytes.
	served, err := k.Run(context.Background(), flow.Request{Circuit: "fulladder", Analyses: []flow.Analysis{
		flow.AnalysisArea, flow.AnalysisSTA, flow.AnalysisImmunity, flow.AnalysisLiberty, flow.AnalysisGDS}})
	if err != nil {
		t.Fatal(err)
	}
	memo := *results["fulladder/shelves"]
	served.Stages, memo.Stages = nil, nil
	a, errA := json.Marshal(served)
	b, errB := json.Marshal(&memo)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Errorf("served fulladder result differs from the memoized one (%v, %v)", errA, errB)
	}
	nls, _ := flow.RegistryModels(t)
	for i, c := range flow.Circuits() {
		for _, placement := range placements {
			res := *results[c.Name+"/"+placement]
			res.Stages = nil
			r.addJSON(t, "result/"+c.Name+"/"+placement, &res)
		}
		blob, err := flow.CodecNetlist.Encode(nls[i])
		if err != nil {
			t.Fatal(err)
		}
		r.add(t, "netlist/"+c.Name, blob)
	}
}

// staRows pins each technology's STA report in the memoized registry
// results, at the scheme it was placed with.
func staRows(t *testing.T, _ *flow.Kit, r rows) {
	results := flow.RegistryResults(t)
	for _, c := range flow.Circuits() {
		for _, placement := range placements {
			for tn, tr := range results[c.Name+"/"+placement].Techs {
				if techScheme(tn, placement) == placement {
					r.addJSON(t, "sta/"+c.Name+"/"+tn+"/"+placement, tr.STA)
				}
			}
		}
	}
}

// libertyRows pins the .lib text in the memoized registry results, per
// circuit and technology.
func libertyRows(t *testing.T, _ *flow.Kit, r rows) {
	results := flow.RegistryResults(t)
	for _, c := range flow.Circuits() {
		for tn, tr := range results[c.Name+"/shelves"].Techs {
			r.add(t, "liberty/"+c.Name+"/"+tn, []byte(tr.Liberty))
		}
	}
}

// nldmRows pins the NLDM entry of the registry characterization, per
// circuit and technology.
func nldmRows(t *testing.T, _ *flow.Kit, r rows) {
	nls, models := flow.RegistryModels(t)
	for i, c := range flow.Circuits() {
		for _, tech := range []rules.Tech{rules.CMOS, rules.CNFET} {
			blob, err := flow.CodecNLDM.Encode(flow.CircuitModel(models[tech], nls[i]))
			if err != nil {
				t.Fatal(err)
			}
			r.add(t, "nldm/"+c.Name+"/"+strings.ToLower(tech.String()), blob)
		}
	}
}

// layoutRows pins every registry design's area fields, placement entry
// and GDS bytes, per technology.
func layoutRows(t *testing.T, k *flow.Kit, r rows) {
	for _, c := range flow.Circuits() {
		for _, placement := range placements {
			res, err := k.Run(context.Background(), flow.Request{Circuit: c.Name, Placement: placement,
				Analyses: []flow.Analysis{flow.AnalysisArea, flow.AnalysisGDS}})
			if err != nil {
				t.Fatal(err)
			}
			for tn, tr := range res.Techs {
				if techScheme(tn, placement) != placement {
					continue
				}
				id := c.Name + "/" + tn + "/" + placement
				r.addJSON(t, "area/"+id, []float64{tr.AreaLam2, tr.WidthLam, tr.HeightLam, tr.Utilization})
				tech, err := flow.ParseTech(tn)
				if err != nil {
					t.Fatal(err)
				}
				lib, err := k.LibFor(tech)
				if err != nil {
					t.Fatal(err)
				}
				blob, err := flow.PlacementCodec(lib).Encode(tr.Placement)
				if err != nil {
					t.Fatal(err)
				}
				r.add(t, "placement/"+id, blob)
				r.add(t, "gds/"+id, tr.GDS)
			}
		}
	}
}

// transientRows pins the delay and energy of every registry circuit but
// mult8 on both technologies.
func transientRows(t *testing.T, k *flow.Kit, r rows) {
	for _, c := range flow.Circuits() {
		if c.Name == "mult8" {
			continue
		}
		res, err := k.Run(context.Background(), flow.Request{Circuit: c.Name,
			Analyses: []flow.Analysis{flow.AnalysisDelay, flow.AnalysisEnergy}})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for tn, tr := range res.Techs {
			r.addJSON(t, "delay/"+c.Name+"/"+tn, tr.DelayS)
			r.addJSON(t, "energy/"+c.Name+"/"+tn, tr.EnergyJ)
		}
	}
}

// immunityGoldenRequest is the pinned immunity job: a Monte Carlo
// sample and a non-zero variation model, so the stage reads the cached
// certificates, samples per design and composes a functional yield.
func immunityGoldenRequest(circuit string, seed int64) flow.Request {
	return flow.Request{
		Circuit:    circuit,
		Techs:      []string{"cnfet"},
		Analyses:   []flow.Analysis{flow.AnalysisImmunity},
		MCTubes:    64,
		CNTCountCV: 0.2,
		AlignmentP: 0.05,
		Seed:       seed,
	}
}

// immunityRows pins every registry circuit's CNFET ImmunityResult at
// seeds 1 and 2.
func immunityRows(t *testing.T, k *flow.Kit, r rows) {
	for _, c := range flow.Circuits() {
		for _, seed := range []int64{1, 2} {
			res, err := k.Run(context.Background(), immunityGoldenRequest(c.Name, seed))
			if err != nil {
				t.Fatalf("%s/%d: %v", c.Name, seed, err)
			}
			r.addJSON(t, fmt.Sprintf("immunity/%s/%d", c.Name, seed), res.Techs["cnfet"].Immunity)
		}
	}
}

// varDelayPinRequest is mux2's CNFET delay under count and diameter
// spread: eight ensemble lanes.
var varDelayPinRequest = flow.Request{
	Circuit:         "mux2",
	Techs:           []string{"cnfet"},
	Analyses:        []flow.Analysis{flow.AnalysisDelay},
	CNTCountCV:      0.2,
	DiameterSigmaNM: 0.05,
	VarSamples:      8,
	Seed:            1,
}

func varDelayRows(t *testing.T, k *flow.Kit, r rows) {
	res, err := k.Run(context.Background(), varDelayPinRequest)
	if err != nil {
		t.Fatal(err)
	}
	vd := res.Techs["cnfet"].VarDelay
	if vd == nil || vd.Samples != varDelayPinRequest.VarSamples {
		t.Fatalf("var_delay %+v, want %d samples", vd, varDelayPinRequest.VarSamples)
	}
	r.addJSON(t, "vardelay/mux2", vd)
}

// cellRows pins every library cell of both technologies, exported alone
// under both schemes.
func cellRows(t *testing.T, k *flow.Kit, r rows) {
	for _, tech := range []rules.Tech{rules.CMOS, rules.CNFET} {
		lib, err := k.LibFor(tech)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range lib.Names() {
			c, err := lib.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, scheme := range []layout.Scheme{layout.Scheme1, layout.Scheme2} {
				g := gdsii.NewLibrary("CORPUS")
				flow.ExportCell(g, c.Layout, c.FullName(), c.Rules.LambdaNM, scheme)
				var buf bytes.Buffer
				if err := g.Write(&buf); err != nil {
					t.Fatal(err)
				}
				r.add(t, "cell/"+strings.ToLower(tech.String())+"/"+name+"/"+scheme.String(), buf.Bytes())
			}
		}
	}
}

// fabricSTASpec is internal/fabric's TestFabricSweepCarriesSTA spec,
// whose report carries instance delays across a worker's stream; that
// test holds the fabric's merge to the local report this row pins.
var fabricSTASpec = sweep.Spec{
	Name: "fabric-sta",
	Base: flow.Request{Techs: []string{"cnfet"}, Analyses: []flow.Analysis{flow.AnalysisSTA}},
	Axes: sweep.Axes{Circuits: []string{"fulladder", "mux2"}, WireCaps: []float64{0.03e-18, 0.12e-18}},
}

// ciCooptSpec is the search CI's fabric job runs through cnfetopt
// (-circuit mux2 -cvs 0.1,0.3 -aligns 0.05 -pitches 5,8,13 -drives 1,2
// -samples 2 -seed 1), whose -o file is the canonical front plus a
// newline.
var ciCooptSpec = coopt.Spec{
	Circuit:     "mux2",
	PitchesNM:   []float64{5, 8, 13},
	CountCVs:    []float64{0.1, 0.3},
	AlignmentPs: []float64{0.05},
	Drives:      []float64{1, 2},
	VarSamples:  2,
	Seed:        1,
}

// sweepRows pins two canonical sweep reports and one co-optimization
// front.
func sweepRows(t *testing.T, k *flow.Kit, r rows) {
	ctx := context.Background()
	for _, spec := range []sweep.Spec{chaos.DefaultSpec(), fabricSTASpec} {
		rep, err := sweep.Run(ctx, k, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		blob, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		r.add(t, "sweep/"+spec.Name, blob)
	}
	front, err := coopt.Search(ctx, coopt.KitRunner{Kit: k}, ciCooptSpec)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := front.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	r.add(t, "coopt/"+ciCooptSpec.Circuit, blob)
}

// freshRows computes the fresh families of t's test on a new kit.
func freshRows(t *testing.T, workers int) rows {
	k, err := flow.New(context.Background(), flow.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	r := rows{}
	for _, f := range familiesOf(t) {
		if f.fresh {
			f.rows(t, k, r)
		}
	}
	return r
}

// childRows re-executes the test binary on t's test, the standard
// helper-process way, and reads the fresh rows it computed at one
// worker.
func childRows(t *testing.T) rows {
	out := filepath.Join(t.TempDir(), "rows")
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1")
	cmd.Env = append(os.Environ(), corpusChildEnv+"="+out)
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("re-executed test binary: %v\n%s", err, b)
	}
	return readRows(t, out)
}

// diffRows lists what would make the file match got: the lines to
// paste (missing or moved rows) and the lines to delete (stale rows).
func diffRows(want, got rows) string {
	var paste, del []string
	for _, row := range slices.Sorted(maps.Keys(got)) {
		if want[row] != got[row] {
			paste = append(paste, row+" "+got[row])
		}
	}
	for _, row := range slices.Sorted(maps.Keys(want)) {
		if _, ok := got[row]; !ok {
			del = append(del, row+" "+want[row])
		}
	}
	var b strings.Builder
	if len(paste) > 0 {
		fmt.Fprintf(&b, "%d rows missing or moved; paste these lines, in row order:\n%s\n", len(paste), strings.Join(paste, "\n"))
	}
	if len(del) > 0 {
		fmt.Fprintf(&b, "%d stale rows; delete these lines:\n%s\n", len(del), strings.Join(del, "\n"))
	}
	return b.String()
}

// readRows reads "<row> <sha256>" lines, which must be in row order,
// each row once.
func readRows(t *testing.T, path string) rows {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := rows{}
	prev := ""
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		row, sum, ok := strings.Cut(sc.Text(), " ")
		if _, err := hex.DecodeString(sum); !ok || err != nil || len(sum) != 2*sha256.Size {
			t.Fatalf("%s:%d: want \"<row> <sha256>\", have %q", path, n, sc.Text())
		}
		if row <= prev {
			t.Fatalf("%s:%d: row %s out of order or repeated", path, n, row)
		}
		r[row], prev = sum, row
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return r
}

func writeRows(t *testing.T, path string, r rows) {
	var b strings.Builder
	for _, row := range slices.Sorted(maps.Keys(r)) {
		b.WriteString(row + " " + r[row] + "\n")
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
