package flow

// The binary netlist, placement and wire-cap codecs at the value level:
// every registry circuit's values survive Encode then Decode unchanged,
// and the decoders turn any other bytes into errBadEntry, never a panic
// or an allocation larger than their input.

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"cnfetdk/internal/liberty"
	"cnfetdk/internal/pipeline"
	"cnfetdk/internal/place"
	"cnfetdk/internal/rules"
	"cnfetdk/internal/synth"
)

// roundTrip encodes v, decodes the bytes and checks that the value is
// reflect.DeepEqual to v and re-encodes to the same bytes.
func roundTrip(t *testing.T, c pipeline.Codec, what string, v any) {
	t.Helper()
	blob, err := c.Encode(v)
	if err != nil {
		t.Fatalf("%s: encode: %v", what, err)
	}
	back, err := c.Decode(blob)
	if err != nil {
		t.Fatalf("%s: decode: %v", what, err)
	}
	if !reflect.DeepEqual(back, v) {
		t.Fatalf("%s: Decode(Encode(v)) differs from v", what)
	}
	if again, err := c.Encode(back); err != nil || !bytes.Equal(again, blob) {
		t.Fatalf("%s: the decoded value re-encodes to other bytes (err %v)", what, err)
	}
}

var registryChar struct {
	once   sync.Once
	nls    []*synth.Netlist
	models map[rules.Tech]*liberty.Model
	err    error
}

// registryModels builds every registry circuit's netlist (in Circuits
// order) and characterizes, once per test binary on the shared kit, the
// cells they instantiate on both technologies. Each cell's arcs are
// characterized on their own, so a circuit's NLDM model is its
// technology's model restricted to its cells (circuitModel).
func registryModels(t *testing.T) ([]*synth.Netlist, map[rules.Tech]*liberty.Model) {
	t.Helper()
	k := kit(t)
	rc := &registryChar
	rc.once.Do(func() {
		used := map[string]bool{}
		for _, c := range Circuits() {
			nl, err := c.Build()
			if err != nil {
				rc.err = err
				return
			}
			rc.nls = append(rc.nls, nl)
			for _, inst := range nl.Instances {
				used[inst.Cell] = true
			}
		}
		rc.models = map[rules.Tech]*liberty.Model{}
		for _, tech := range []rules.Tech{rules.CNFET, rules.CMOS} {
			lib, err := k.LibFor(tech)
			if err != nil {
				rc.err = err
				return
			}
			if rc.models[tech], rc.err = liberty.Characterize(context.Background(), lib, nil, func(name string) bool { return used[name] }, 0); rc.err != nil {
				return
			}
		}
	})
	if rc.err != nil {
		t.Fatal(rc.err)
	}
	return rc.nls, rc.models
}

// circuitModel restricts a technology's model to the cells nl
// instantiates: the model the nldm stage builds for nl.
func circuitModel(all *liberty.Model, nl *synth.Netlist) *liberty.Model {
	m := *all
	m.Cells = map[string]*liberty.CellModel{}
	for _, inst := range nl.Instances {
		m.Cells[inst.Cell] = all.Cells[inst.Cell]
	}
	return &m
}

// TestBinaryCodecsRoundTrip: every registry circuit's netlist, its rows
// and shelves placements on both technologies, the wire caps of each,
// and its NLDM model and shelves STA report on both technologies decode
// to values reflect.DeepEqual to what was encoded. The result reads
// only a placement's area, so this is what catches a decode that drops
// an instance's pin.
func TestBinaryCodecsRoundTrip(t *testing.T) {
	k := kit(t)
	nls, models := registryModels(t)
	for _, tech := range []rules.Tech{rules.CNFET, rules.CMOS} {
		lib, err := k.LibFor(tech)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range Circuits() {
			nl := nls[i]
			if tech == rules.CNFET {
				roundTrip(t, codecNetlist, c.Name+" netlist", nl)
			}
			var wire map[string]float64
			for _, scheme := range []string{"rows", "shelves"} {
				what := c.Name + " " + tech.String() + " " + scheme
				p, err := placeScheme(lib, nl, scheme, c.Rows)
				if err != nil {
					t.Fatal(err)
				}
				roundTrip(t, placementCodec(lib), what+" placement", p)
				wire = WireCapsWith(p, nl, lib.Rules.LambdaNM, WireCapPerNM)
				roundTrip(t, codecWireCaps, what+" wire caps", wire)
			}
			m := circuitModel(models[tech], nl)
			what := c.Name + " " + tech.String()
			roundTrip(t, codecNLDM, what+" nldm", m)
			rep, err := runSTA(nl, m, wire)
			if err != nil {
				t.Fatal(err)
			}
			roundTrip(t, codecSTA, what+" sta", rep)
		}
	}
}

// TestBinaryCodecsRefuseMalformedEntries: each way an entry can be
// malformed is an errBadEntry, which the cache reads as a miss.
func TestBinaryCodecsRefuseMalformedEntries(t *testing.T) {
	inv := synth.Instance{Name: "u1", Cell: "INV_1X", Conns: map[string]string{"A": "A", "OUT": "Y"}}
	nl := &synth.Netlist{Name: "n", Inputs: []string{"A"}, Outputs: []string{"Y"}, Instances: []synth.Instance{inv}}
	good, err := codecNetlist.Encode(nl)
	if err != nil {
		t.Fatal(err)
	}
	// good holds name "n" (2 bytes), one input "A" (3), one output "Y"
	// (3), one instance "u1" (1+3) of "INV_1X" (7) with two pins (1),
	// then pin "A" to net "A" (repeats of table entry 1: 0x03 0x03) and
	// pin "OUT" (4) to net "Y" (a repeat of entry 2: 0x05).
	unsorted := append(good[:20:20], 0x06, 'O', 'U', 'T', 0x05, 0x03, 0x03)
	if want := append(good[:20:20], 0x03, 0x03, 0x06, 'O', 'U', 'T', 0x05); !bytes.Equal(good, want) {
		t.Fatalf("netlist entry % x, want % x", good, want)
	}
	lib := kit(t).CNFET
	inv.Cell = "INV_3X"
	missing, err := placementCodec(lib).Encode(&place.Placement{Name: "p", Cells: []place.PlacedCell{{Inst: inv}}})
	if err != nil {
		t.Fatal(err)
	}

	// staGood holds delay 0 (8 bytes), worst net "Y" (2), a one-net
	// critical path (a repeat of "Y": 0x01 0x01), 1 level and 1
	// instance (zigzag 0x02 each) and one instance delay: "u1" (3) and
	// its 8 bytes.
	f8 := make([]byte, 8)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	staGood, err := codecSTA.Encode(&STAReport{WorstNet: "Y", CriticalPath: []string{"Y"}, Levels: 1, Instances: 1,
		InstanceDelay: InstanceDelays{{Name: "u1"}}})
	if err != nil {
		t.Fatal(err)
	}
	staHead := cat(f8, []byte{0x02, 'Y', 0x01, 0x01, 0x02, 0x02})
	if want := cat(staHead, []byte{0x01, 0x04, 'u', '1'}, f8); !bytes.Equal(staGood, want) {
		t.Fatalf("sta entry % x, want % x", staGood, want)
	}
	staUnsorted := cat(staHead, []byte{0x02, 0x04, 'u', '2'}, f8, []byte{0x04, 'u', '1'}, f8)

	// nldmEntry renders model "m" of tech "t" with one-point load and
	// slew axes and the given cells; nldmCell renders cell name (area 0,
	// function "f", no input caps, energy 0) with no arcs, or with one
	// arc "A" whose surface bytes follow.
	nldmEntry := func(cells ...[]byte) []byte {
		return cat([]byte{0x02, 'm', 0x02, 't', 0x01}, f8, []byte{0x01}, f8, f8, []byte{byte(len(cells))}, cat(cells...))
	}
	nldmCell := func(name byte, surface []byte) []byte {
		arcs := []byte{0x00}
		if surface != nil {
			arcs = cat([]byte{0x01, 0x02, 'A'}, surface)
		}
		return cat([]byte{0x02, name, 0x02, name}, f8, []byte{0x02, 'f', 0x00}, arcs, f8)
	}
	nldmHead := nldmEntry() // ends in a zero cell count
	nldmHead = nldmHead[:len(nldmHead)-1]
	grid := cat(f8, f8) // one delay and one output slew
	nldmGood := nldmEntry(nldmCell('C', cat([]byte{surfaceModelAxes}, grid)))
	if _, err := codecNLDM.Decode(nldmGood); err != nil {
		t.Fatalf("well-formed nldm entry: %v", err)
	}

	cases := []struct {
		name  string
		codec pipeline.Codec
		data  []byte
	}{
		{"empty", codecNetlist, nil},
		{"truncated", codecNetlist, good[:len(good)-1]},
		{"trailing byte", codecNetlist, append(good[:len(good):len(good)], 0)},
		{"huge count", codecNetlist, []byte{0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}},
		{"string past the input", codecNetlist, []byte{0x7e, 'n'}},
		{"string index past the table", codecNetlist, []byte{0x02, 'n', 0x01, 0x03}},
		{"pins out of order", codecNetlist, unsorted},
		{"cell not in the library", placementCodec(lib), missing},
		{"nets out of order", codecWireCaps, []byte{0x02, 0x02, 'B', 0, 0, 0, 0, 0, 0, 0, 0, 0x02, 'A', 0, 0, 0, 0, 0, 0, 0, 0}},
		{"short float", codecWireCaps, []byte{0x01, 0x04, 'A', 'B', 0, 0, 0, 0, 0, 0, 0}},
		{"sta instances out of order", codecSTA, staUnsorted},
		{"sta count past the bytes left", codecSTA, cat(staHead, []byte{0x05, 0x04, 'u', '1'}, f8)},
		{"sta short float", codecSTA, staGood[:len(staGood)-1]},
		{"sta trailing byte", codecSTA, cat(staGood, []byte{0})},
		{"nldm cells out of order", codecNLDM, nldmEntry(nldmCell('D', nil), nldmCell('C', nil))},
		{"nldm count past the bytes left", codecNLDM, cat(nldmHead, []byte{0x05}, nldmCell('C', nil))},
		{"nldm short float", codecNLDM, nldmGood[:len(nldmGood)-1]},
		{"nldm trailing byte", codecNLDM, cat(nldmGood, []byte{0})},
		{"nldm unknown surface tag", codecNLDM, nldmEntry(nldmCell('C', cat([]byte{3}, grid)))},
		{"nldm surface past the bytes left", codecNLDM, nldmEntry(nldmCell('C', cat([]byte{surfaceOwnAxes, 0x01}, f8, []byte{0x01}, f8)))},
	}
	for _, tc := range cases {
		if _, err := tc.codec.Decode(tc.data); !errors.Is(err, errBadEntry) {
			t.Errorf("%s: err = %v, want errBadEntry", tc.name, err)
		}
	}
}

// FuzzDecodeBinaryEntry holds the netlist, placement, wire-cap, STA and
// NLDM decoders to their contract on arbitrary bytes: an errBadEntry, or
// a value whose re-encoding decodes to the same value, bit for bit (it
// encodes to the same bytes again); never a panic, and never an
// allocation sized by a count the input cannot hold. The seed corpus (testdata/fuzz/FuzzDecodeBinaryEntry) holds the
// fulladder, mux2 and mult4 netlist, CNFET shelves placement, wire-cap
// and STA entries and CNFET NLDM entries, a truncated placement, a
// truncated NLDM entry and a header with a huge count.
func FuzzDecodeBinaryEntry(f *testing.F) {
	k, err := New(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	codecs := []pipeline.Codec{codecNetlist, placementCodec(k.CNFET), codecWireCaps, codecSTA, codecNLDM}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			v, err := c.Decode(data)
			if err != nil {
				if !errors.Is(err, errBadEntry) {
					t.Fatalf("%s: error %v does not wrap errBadEntry", c.Name(), err)
				}
				continue
			}
			again, err := c.Encode(v)
			if err != nil {
				t.Fatalf("%s: a decoded value does not encode: %v", c.Name(), err)
			}
			back, err := c.Decode(again)
			if err != nil {
				t.Fatalf("%s: a re-encoded value does not decode: %v", c.Name(), err)
			}
			// Floats compare by their bits: reflect.DeepEqual never
			// equals a NaN to itself and equals 0 to -0.
			if third, err := c.Encode(back); err != nil || !bytes.Equal(third, again) {
				t.Fatalf("%s: the re-encoded value decodes to a different value (err %v)", c.Name(), err)
			}
		}
	})
}
