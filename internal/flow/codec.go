package flow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/geom"
	"cnfetdk/internal/layout"
	"cnfetdk/internal/liberty"
	"cnfetdk/internal/pipeline"
	"cnfetdk/internal/place"
	"cnfetdk/internal/synth"
)

// cacheSchema salts every stage cache key with the flow's computation
// version. Bump it whenever a change alters what any stage computes
// without altering its inputs (a solver fix, a model recalibration, a
// placement heuristic change): persisted artifact-store entries keyed
// under the old salt then read as misses instead of stale results.
// Codec format changes are versioned separately, in each codec's @vN
// name suffix; on-disk container changes in store.Namespace.
// v2: the spice solver core switched the MNA assembly to a static/
// nonlinear stamping split and the FET linearization to analytic
// derivatives — converged results agree within solver tolerance but the
// low-order bits of simulated stage payloads (delays, energies,
// waveform-derived metrics) can shift, so v1 artifacts must not be
// served against v2 computations.
// v3: the solver core gained a sparse LU path with a fill-reducing
// ordering — the elimination order differs from dense partial-pivot LU,
// so converged waveforms (and everything derived from them) drift in
// the low-order FP bits on circuits above the dense/sparse crossover.
// v4: characterization grew the input-slew axis — the liberty stage's
// .lib text now carries 2-D (slew × load) templates and transition
// tables, so v3 liberty artifacts describe a different model and must
// read as misses (the nldm and sta stages are new under this salt).
// v5: the dense LU below the old 50-unknown crossover is gone; cell
// testbenches, the full adder and the mux2 ensembles now factor through
// the sparse kernel's fill-reducing order without value pivoting, so
// their waveforms (liberty, nldm, sta, vardelay and small-circuit delay
// payloads) move in the low-order bits. Systems of 50+ unknowns are
// bit-identical to v4.
const cacheSchema = "cnfetdk/flow@v5"

// The registered codecs of the flow's serializable stage results. Every
// stage Kit.Run schedules declares one of these (or a per-kit placement
// codec below), which is what lets the artifact store's disk tier serve
// a stage in a process that never computed it. The netlist, placement
// and wire-cap entries use the binary format below; the rest are JSON.
var (
	codecNetlist  = pipeline.RegisterCodec(pipeline.NewCodec("flow/netlist@v2", encodeNetlist, decodeNetlist))
	codecWireCaps = pipeline.RegisterCodec(pipeline.NewCodec("flow/wirecaps@v2", encodeWireCaps, decodeWireCaps))
	codecScalar   = pipeline.RegisterCodec(pipeline.JSONCodec[float64]("flow/scalar@v1"))
	codecImmunity = pipeline.RegisterCodec(pipeline.JSONCodec[*ImmunityResult]("flow/immunity@v1"))
	codecVarDelay = pipeline.RegisterCodec(pipeline.JSONCodec[*DelayEnsemble]("flow/vardelay@v1"))
	codecLiberty  = pipeline.RegisterCodec(pipeline.JSONCodec[string]("flow/liberty@v1"))
	codecNLDM     = pipeline.RegisterCodec(pipeline.JSONCodec[*liberty.Model]("flow/nldm@v2"))
	codecSTA      = pipeline.RegisterCodec(pipeline.JSONCodec[*STAReport]("flow/sta@v1"))
	codecGDS      = pipeline.RegisterCodec(pipeline.RawCodec("flow/gds@v1"))
	// codecCert is not a stage's codec: it persists the per-cell
	// certificates the immunity stage reads (Kit.certify).
	codecCert = pipeline.RegisterCodec(pipeline.JSONCodec[cellCert]("flow/cert@v1"))
)

// placementCodec serializes *place.Placement against a specific library:
// cell pointers are stored as names and re-resolved on decode, which is
// sound because library construction is deterministic and the stage key
// already pins the technology and its design rules. A decode against a
// library missing the named cell fails, which the store treats as a miss
// and recomputes.
func placementCodec(lib *cells.Library) pipeline.Codec {
	return pipeline.NewCodec("flow/placement@v2",
		func(v any) ([]byte, error) {
			p, ok := v.(*place.Placement)
			if !ok || p == nil {
				return nil, fmt.Errorf("flow: placement codec: encoding %T", v)
			}
			w := newEntryWriter()
			w.str(p.Name)
			w.varint(int64(p.Scheme))
			w.varint(int64(p.Width))
			w.varint(int64(p.Height))
			w.float(p.NaturalArea)
			w.uvarint(uint64(len(p.Cells)))
			for _, pc := range p.Cells {
				w.instance(pc.Inst)
				w.varint(int64(pc.X))
				w.varint(int64(pc.Y))
				w.varint(int64(pc.W))
				w.varint(int64(pc.H))
			}
			return w.buf, nil
		},
		func(data []byte) (any, error) {
			r := newEntryReader(data)
			p := &place.Placement{Name: r.str(), Scheme: layout.Scheme(r.varint())}
			p.Width = geom.Coord(r.varint())
			p.Height = geom.Coord(r.varint())
			p.NaturalArea = r.float()
			// A placed cell takes at least 7 bytes: 3 for its instance,
			// 4 for its coordinates.
			if n := r.count(7); n > 0 {
				p.Cells = make([]place.PlacedCell, n)
			}
			for i := range p.Cells {
				pc := &p.Cells[i]
				pc.Inst = r.instance()
				pc.X = geom.Coord(r.varint())
				pc.Y = geom.Coord(r.varint())
				pc.W = geom.Coord(r.varint())
				pc.H = geom.Coord(r.varint())
				if r.err != nil {
					break
				}
				c, err := lib.Get(pc.Inst.Cell)
				if err != nil {
					return nil, fmt.Errorf("%w: %w", errBadEntry, err)
				}
				pc.Cell = c
			}
			if err := r.finish(); err != nil {
				return nil, err
			}
			return p, nil
		})
}

func encodeNetlist(v any) ([]byte, error) {
	nl, ok := v.(*synth.Netlist)
	if !ok || nl == nil {
		return nil, fmt.Errorf("flow: netlist codec: encoding %T", v)
	}
	w := newEntryWriter()
	w.str(nl.Name)
	w.strs(nl.Inputs)
	w.strs(nl.Outputs)
	w.uvarint(uint64(len(nl.Instances)))
	for _, inst := range nl.Instances {
		w.instance(inst)
	}
	return w.buf, nil
}

func decodeNetlist(data []byte) (any, error) {
	r := newEntryReader(data)
	nl := &synth.Netlist{Name: r.str(), Inputs: r.strs(), Outputs: r.strs()}
	// An instance takes at least 3 bytes: name, cell and pin count.
	if n := r.count(3); n > 0 {
		nl.Instances = make([]synth.Instance, n)
	}
	for i := range nl.Instances {
		if nl.Instances[i] = r.instance(); r.err != nil {
			break
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return nl, nil
}

func encodeWireCaps(v any) ([]byte, error) {
	caps, ok := v.(map[string]float64)
	if !ok {
		return nil, fmt.Errorf("flow: wire-cap codec: encoding %T", v)
	}
	w := newEntryWriter()
	w.uvarint(uint64(len(caps)))
	for _, net := range slices.Sorted(maps.Keys(caps)) {
		w.str(net)
		w.float(caps[net])
	}
	return w.buf, nil
}

func decodeWireCaps(data []byte) (any, error) {
	r := newEntryReader(data)
	// A net takes at least 9 bytes: its name and its capacitance.
	n := r.count(9)
	caps := make(map[string]float64, n)
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		net := r.str()
		if i > 0 && net <= prev {
			r.fail("nets out of order")
		}
		caps[net] = r.float()
		prev = net
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return caps, nil
}

// The binary entry format of the netlist, placement and wire-cap codecs.
// These entries are the bulk of a filled store and what a restarted
// daemon decodes for every design, so they are read without reflection:
//   - a count is a uvarint, a coordinate (and a placement's scheme) a
//     zigzag varint, and a float64 its 8 IEEE-754 bits, little-endian;
//   - a string is one uvarint tag: n<<1 for its first use in the entry,
//     followed by its n bytes, which append it to the entry's string
//     table; i<<1|1 for a repeat of table entry i;
//   - an instance is its name, its cell, a pin count and its (pin, net)
//     pairs in increasing pin order; wire caps are a count and (net,
//     capacitance) pairs in increasing net order. Sorted keys make a
//     value encode to the same bytes every time.
//
// A decoder bounds every count by the bytes left, every string by the
// bytes left and every table index by the table, refuses keys out of
// order and trailing bytes, and wraps every failure in errBadEntry; the
// cache counts a failed decode as a disk error and a miss.

// errBadEntry marks bytes that are not a valid binary entry.
var errBadEntry = errors.New("flow: bad binary entry")

// entryWriter appends one binary entry.
type entryWriter struct {
	buf  []byte
	seen map[string]uint64 // string table: string → index
	pins []string          // scratch for sorting an instance's pins
}

func newEntryWriter() *entryWriter {
	return &entryWriter{seen: map[string]uint64{}}
}

func (w *entryWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *entryWriter) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }

func (w *entryWriter) float(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

func (w *entryWriter) str(s string) {
	if i, ok := w.seen[s]; ok {
		w.uvarint(i<<1 | 1)
		return
	}
	w.seen[s] = uint64(len(w.seen))
	w.uvarint(uint64(len(s)) << 1)
	w.buf = append(w.buf, s...)
}

func (w *entryWriter) strs(ss []string) {
	w.uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}

func (w *entryWriter) instance(inst synth.Instance) {
	w.str(inst.Name)
	w.str(inst.Cell)
	w.pins = slices.AppendSeq(w.pins[:0], maps.Keys(inst.Conns))
	slices.Sort(w.pins)
	w.uvarint(uint64(len(w.pins)))
	for _, pin := range w.pins {
		w.str(pin)
		w.str(inst.Conns[pin])
	}
}

// entryReader decodes one binary entry. The first failure sticks: later
// reads return zero values, so a decoder checks err once at the end
// (finish) and inside loops it wants to cut short.
type entryReader struct {
	data []byte
	// text holds data as one string; every decoded string is a
	// substring of it, so the string table costs no allocation per
	// string.
	text  string
	off   int
	table []string
	err   error
}

func newEntryReader(data []byte) *entryReader {
	return &entryReader{data: data, text: string(data)}
}

func (r *entryReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at byte %d", errBadEntry, what, r.off)
	}
}

func (r *entryReader) left() int { return len(r.data) - r.off }

func (r *entryReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *entryReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

func (r *entryReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if r.left() < 8 {
		r.fail("short float64")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return f
}

// count reads the count of elements that take at least size bytes
// each, refusing one the bytes left cannot hold, so no count allocates
// past its input.
func (r *entryReader) count(size int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(r.left()/size) {
		r.fail("count past the bytes left")
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *entryReader) str() string {
	tag := r.uvarint()
	if r.err != nil {
		return ""
	}
	if tag&1 == 1 {
		if i := tag >> 1; i < uint64(len(r.table)) {
			return r.table[i]
		}
		r.fail("string index past the table")
		return ""
	}
	n := tag >> 1
	if n > uint64(r.left()) {
		r.fail("string past the bytes left")
		return ""
	}
	s := r.text[r.off : r.off+int(n)]
	r.off += int(n)
	r.table = append(r.table, s)
	return s
}

func (r *entryReader) strs() []string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.str()
	}
	return ss
}

func (r *entryReader) instance() synth.Instance {
	inst := synth.Instance{Name: r.str(), Cell: r.str()}
	// A pin takes at least 2 bytes: its name and its net.
	n := r.count(2)
	inst.Conns = make(map[string]string, n)
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		pin := r.str()
		if i > 0 && pin <= prev {
			r.fail("pins out of order")
		}
		inst.Conns[pin] = r.str()
		prev = pin
	}
	return inst
}

// finish refuses trailing bytes and returns the first failure.
func (r *entryReader) finish() error {
	if r.err == nil && r.off != len(r.data) {
		r.fail("trailing bytes")
	}
	return r.err
}
