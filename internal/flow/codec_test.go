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
	"testing"

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

// TestBinaryCodecsRoundTrip: every registry circuit's netlist, its rows
// and shelves placements on both technologies and the wire caps of each
// decode to values reflect.DeepEqual to what was encoded. The result
// reads only a placement's area, so this is what catches a decode that
// drops an instance's pin.
func TestBinaryCodecsRoundTrip(t *testing.T) {
	k := kit(t)
	for _, c := range Circuits() {
		nl, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, codecNetlist, c.Name+" netlist", nl)
		for _, tech := range []rules.Tech{rules.CNFET, rules.CMOS} {
			lib, err := k.LibFor(tech)
			if err != nil {
				t.Fatal(err)
			}
			for _, scheme := range []string{"rows", "shelves"} {
				what := c.Name + " " + tech.String() + " " + scheme
				p, err := placeScheme(lib, nl, scheme, c.Rows)
				if err != nil {
					t.Fatal(err)
				}
				roundTrip(t, placementCodec(lib), what+" placement", p)
				roundTrip(t, codecWireCaps, what+" wire caps", WireCapsWith(p, nl, lib.Rules.LambdaNM, WireCapPerNM))
			}
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
	}
	for _, tc := range cases {
		if _, err := tc.codec.Decode(tc.data); !errors.Is(err, errBadEntry) {
			t.Errorf("%s: err = %v, want errBadEntry", tc.name, err)
		}
	}
}

// FuzzDecodeBinaryEntry holds the netlist, placement and wire-cap
// decoders to their contract on arbitrary bytes: an errBadEntry, or a
// value whose re-encoding decodes to a reflect.DeepEqual value; never a
// panic, and never an allocation sized by a count the input cannot
// hold. The seed corpus (testdata/fuzz/FuzzDecodeBinaryEntry) holds the
// fulladder, mux2 and mult4 netlist, CNFET shelves placement and wire-cap
// entries, a truncated placement and a header with a huge count.
func FuzzDecodeBinaryEntry(f *testing.F) {
	k, err := New(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	codecs := []pipeline.Codec{codecNetlist, placementCodec(k.CNFET), codecWireCaps}
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
			if !reflect.DeepEqual(back, v) {
				t.Fatalf("%s: the re-encoded value decodes to a different value", c.Name())
			}
		}
	})
}
