package flow

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"strings"
	"testing"

	"cnfetdk/internal/liberty"
)

// The characterization parity pins: values recorded before the
// characterization and ensemble paths were folded into one grid
// characterizer and one lane type. Folding reorganized the call paths,
// not the arithmetic, so every simulated number and every .lib byte
// must stay identical.
var (
	// libertyTextSHA256 is the sha256 of the fulladder liberty analysis
	// text, per technology.
	libertyTextSHA256 = map[string]string{
		"cmos":  "9f091c407d0a253511df74617a21eece5cc0849dc8e95bb1ed073bf14920d4db",
		"cnfet": "443c423321d84b9318d44b45aacd6d7b947698953399c178f34047db9e3ec341",
	}
	// nldmBitsSHA256 is the sha256 over math.Float64bits of every
	// Surface entry and EnergyJ of a circuit's nldm model, per
	// circuit/technology.
	nldmBitsSHA256 = map[string]string{
		"fulladder/cmos":  "937691a1382db92c6206aa094fab3f07f48fb681a5c6139e232b95af53906d49",
		"fulladder/cnfet": "dd6c2638ed7d842146dfaa540716c0cb71afc574ac5dc2c0e1c0cfac990d27bf",
		"mux2/cmos":       "0d4d98c1aac0f4f90fa2304c1688932327d0c69b8fe4378383b805b313a10c3d",
		"mux2/cnfet":      "76cf16fabbaa759321088f1a21dc6f66a9774220941ad08a3e802317fe6eae2a",
	}
	// varDelayBits is math.Float64bits of mux2's CNFET var_delay fields
	// (mean, sigma, min, max) under varDelayPinRequest.
	varDelayBits = [4]uint64{0x3da8ae98fc1a3f50, 0x3d6462bd6fe3d8b1, 0x3da6203b94c11a00, 0x3daa14f8700fc240}
)

var varDelayPinRequest = Request{
	Circuit:         "mux2",
	Techs:           []string{"cnfet"},
	Analyses:        []Analysis{AnalysisDelay},
	CNTCountCV:      0.2,
	DiameterSigmaNM: 0.05,
	VarSamples:      8,
	Seed:            1,
}

// nldmDigest hashes the bits of every Surface entry (axes, delays and
// output slews) and EnergyJ of a model, cells in sorted order.
func nldmDigest(m *liberty.Model) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	names := make([]string, 0, len(m.Cells))
	for n := range m.Cells {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := m.Cells[n]
		h.Write([]byte(n))
		for _, a := range c.Arcs {
			h.Write([]byte(a.Input))
			sf := a.Surface
			for _, axis := range [][]float64{sf.SlewsS, sf.LoadsF} {
				for _, x := range axis {
					put(x)
				}
			}
			for _, table := range [][][]float64{sf.DelayS, sf.OutSlewS} {
				for _, row := range table {
					for _, x := range row {
						put(x)
					}
				}
			}
		}
		put(c.EnergyJ)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLibertyTextParity pins the fulladder .lib text of both
// technologies byte for byte.
func TestLibertyTextParity(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes the fulladder cells")
	}
	res, err := kit(t).Run(context.Background(), Request{Circuit: "fulladder", Analyses: []Analysis{AnalysisLiberty}})
	if err != nil {
		t.Fatal(err)
	}
	for tech, want := range libertyTextSHA256 {
		sum := sha256.Sum256([]byte(res.Techs[tech].Liberty))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("fulladder %s liberty sha256 %s, want %s", tech, got, want)
		}
	}
}

// TestNLDMModelBitsParity pins the bits of every characterized number
// of the fulladder and mux2 nldm models on both technologies.
func TestNLDMModelBitsParity(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes the fulladder and mux2 cells")
	}
	k := kit(t)
	for _, name := range []string{"fulladder", "mux2"} {
		c, err := LookupCircuit(name)
		if err != nil {
			t.Fatal(err)
		}
		nl, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, tech := range kitTechs {
			lib, err := k.LibFor(tech)
			if err != nil {
				t.Fatal(err)
			}
			m, err := k.runNLDM(context.Background(), lib, nl)
			if err != nil {
				t.Fatal(err)
			}
			key := name + "/" + strings.ToLower(tech.String())
			if got, want := nldmDigest(m), nldmBitsSHA256[key]; got != want {
				t.Errorf("%s nldm bits sha256 %s, want %s", key, got, want)
			}
		}
	}
}

// TestVarDelayBitsParity pins mux2's var_delay distribution bit for bit
// at one and four workers.
func TestVarDelayBitsParity(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	for _, workers := range []int{1, 4} {
		k, err := New(context.Background(), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		res, err := k.Run(context.Background(), varDelayPinRequest)
		if err != nil {
			t.Fatal(err)
		}
		vd := res.Techs["cnfet"].VarDelay
		if vd == nil || vd.Samples != varDelayPinRequest.VarSamples {
			t.Fatalf("workers %d: var_delay %+v, want %d samples", workers, vd, varDelayPinRequest.VarSamples)
		}
		got := [4]uint64{math.Float64bits(vd.MeanS), math.Float64bits(vd.SigmaS),
			math.Float64bits(vd.MinS), math.Float64bits(vd.MaxS)}
		if got != varDelayBits {
			t.Errorf("workers %d: var_delay bits %#x, want %#x", workers, got, varDelayBits)
		}
	}
}
