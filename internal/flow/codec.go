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
// a stage in a process that never computed it. The netlist, placement,
// wire-cap, STA and NLDM entries use the binary format below; the rest
// are JSON.
var (
	codecNetlist  = pipeline.RegisterCodec(pipeline.NewCodec("flow/netlist@v2", encodeNetlist, decodeNetlist))
	codecWireCaps = pipeline.RegisterCodec(pipeline.NewCodec("flow/wirecaps@v2", encodeWireCaps, decodeWireCaps))
	codecScalar   = pipeline.RegisterCodec(pipeline.JSONCodec[float64]("flow/scalar@v1"))
	codecImmunity = pipeline.RegisterCodec(pipeline.JSONCodec[*ImmunityResult]("flow/immunity@v1"))
	codecVarDelay = pipeline.RegisterCodec(pipeline.JSONCodec[*DelayEnsemble]("flow/vardelay@v1"))
	codecLiberty  = pipeline.RegisterCodec(pipeline.JSONCodec[string]("flow/liberty@v1"))
	codecNLDM     = pipeline.RegisterCodec(pipeline.NewCodec("flow/nldm@v3", encodeNLDM, decodeNLDM))
	codecSTA      = pipeline.RegisterCodec(pipeline.NewCodec("flow/sta@v2", encodeSTA, decodeSTA))
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
	w.floatMap(caps)
	return w.buf, nil
}

func decodeWireCaps(data []byte) (any, error) {
	r := newEntryReader(data)
	caps := r.floatMap("nets")
	if err := r.finish(); err != nil {
		return nil, err
	}
	return caps, nil
}

func encodeSTA(v any) ([]byte, error) {
	rep, ok := v.(*STAReport)
	if !ok || rep == nil {
		return nil, fmt.Errorf("flow: sta codec: encoding %T", v)
	}
	w := newEntryWriter()
	w.float(rep.DelayS)
	w.str(rep.WorstNet)
	w.strs(rep.CriticalPath)
	w.varint(int64(rep.Levels))
	w.varint(int64(rep.Instances))
	// The instance delays are already in name order, the order
	// floatMap writes a map in.
	w.uvarint(uint64(len(rep.InstanceDelay)))
	for i, d := range rep.InstanceDelay {
		if i > 0 && d.Name <= rep.InstanceDelay[i-1].Name {
			return nil, fmt.Errorf("flow: sta codec: instance %q out of name order", d.Name)
		}
		w.str(d.Name)
		w.float(d.DelayS)
	}
	return w.buf, nil
}

func decodeSTA(data []byte) (any, error) {
	r := newEntryReader(data)
	rep := &STAReport{DelayS: r.float(), WorstNet: r.str(), CriticalPath: r.strs(),
		Levels: int(r.varint()), Instances: int(r.varint())}
	// A pair takes at least 9 bytes: its name and its delay.
	n := r.count(9)
	rep.InstanceDelay = make(InstanceDelays, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		d := InstanceDelay{Name: r.str(), DelayS: r.float()}
		if i > 0 && d.Name <= rep.InstanceDelay[i-1].Name {
			r.fail("instances out of order")
		}
		rep.InstanceDelay = append(rep.InstanceDelay, d)
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return rep, nil
}

// The tags of an NLDM arc's surface: none, a grid over the model's own
// slew and load axes (what Characterize builds), or a grid over axes of
// its own.
const (
	surfaceNone = iota
	surfaceModelAxes
	surfaceOwnAxes
)

func encodeNLDM(v any) ([]byte, error) {
	m, ok := v.(*liberty.Model)
	if !ok || m == nil {
		return nil, fmt.Errorf("flow: nldm codec: encoding %T", v)
	}
	w := newEntryWriter()
	w.str(m.Name)
	w.str(m.Tech)
	w.floats(m.LoadsF)
	w.floats(m.SlewsS)
	w.float(m.RefLoadF)
	w.uvarint(uint64(len(m.Cells)))
	for _, name := range slices.Sorted(maps.Keys(m.Cells)) {
		cm := m.Cells[name]
		if cm == nil {
			return nil, fmt.Errorf("flow: nldm codec: cell %s has no model", name)
		}
		w.str(name)
		w.str(cm.Name)
		w.float(cm.AreaLam2)
		w.str(cm.Function)
		w.floatMap(cm.InputCapF)
		w.uvarint(uint64(len(cm.Arcs)))
		for _, arc := range cm.Arcs {
			w.str(arc.Input)
			if err := w.surface(arc.Surface, m); err != nil {
				return nil, fmt.Errorf("flow: nldm codec: %s/%s: %w", name, arc.Input, err)
			}
		}
		w.float(cm.EnergyJ)
	}
	return w.buf, nil
}

func decodeNLDM(data []byte) (any, error) {
	r := newEntryReader(data)
	m := &liberty.Model{Name: r.str(), Tech: r.str(), LoadsF: r.floats(), SlewsS: r.floats(), RefLoadF: r.float()}
	// A cell takes at least 21 bytes: its key, its name, its function,
	// two counts and two float64s.
	n := r.count(21)
	m.Cells = make(map[string]*liberty.CellModel, n)
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		key := r.str()
		if i > 0 && key <= prev {
			r.fail("cells out of order")
		}
		prev = key
		cm := &liberty.CellModel{Name: r.str(), AreaLam2: r.float(), Function: r.str(), InputCapF: r.floatMap("input caps")}
		// An arc takes at least 2 bytes: its input and its surface tag.
		if na := r.count(2); na > 0 {
			cm.Arcs = make([]liberty.Arc, na)
		}
		for j := 0; j < len(cm.Arcs) && r.err == nil; j++ {
			cm.Arcs[j] = liberty.Arc{Input: r.str(), Surface: r.surface(m)}
		}
		cm.EnergyJ = r.float()
		m.Cells[key] = cm
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// The binary entry format of the netlist, placement, wire-cap, STA and
// NLDM codecs. These entries are the bulk of a filled store and what a
// restarted daemon decodes for every design, so they are read without
// reflection:
//   - a count is a uvarint, a coordinate (and a placement's scheme) a
//     zigzag varint, and a float64 its 8 IEEE-754 bits, little-endian;
//   - a string is one uvarint tag: n<<1 for its first use in the entry,
//     followed by its n bytes, which append it to the entry's string
//     table; i<<1|1 for a repeat of table entry i;
//   - an instance is its name, its cell, a pin count and its (pin, net)
//     pairs in increasing pin order; wire caps are a count and (net,
//     capacitance) pairs in increasing net order, and an STA report's
//     instance delays (instance, delay) pairs in increasing instance
//     order;
//   - an NLDM model holds its cells in increasing name order, each with
//     its input capacitances in increasing pin order and its arcs in
//     their own order; an arc's surface is a tag (none, the model's
//     axes, or its own axes, which follow) and its delay and output-slew
//     tables, slew-major, one float64 per grid point.
//
// Sorted keys make a value encode to the same bytes every time.
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

// floatMap appends a map's size and its (key, value) pairs in key order.
func (w *entryWriter) floatMap(m map[string]float64) {
	w.uvarint(uint64(len(m)))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		w.str(k)
		w.float(m[k])
	}
}

func (w *entryWriter) floats(fs []float64) {
	w.uvarint(uint64(len(fs)))
	for _, f := range fs {
		w.float(f)
	}
}

// surface appends an arc's surface tag, its own axes if it has them and
// its two tables, which must span its axes.
func (w *entryWriter) surface(sf *liberty.Surface, m *liberty.Model) error {
	switch {
	case sf == nil:
		w.uvarint(surfaceNone)
		return nil
	case len(sf.SlewsS) > 0 && len(sf.LoadsF) > 0 && sameBits(sf.SlewsS, m.SlewsS) && sameBits(sf.LoadsF, m.LoadsF):
		w.uvarint(surfaceModelAxes)
	default:
		w.uvarint(surfaceOwnAxes)
		w.floats(sf.SlewsS)
		w.floats(sf.LoadsF)
	}
	if err := w.grid(sf.DelayS, len(sf.SlewsS), len(sf.LoadsF)); err != nil {
		return err
	}
	return w.grid(sf.OutSlewS, len(sf.SlewsS), len(sf.LoadsF))
}

// grid appends a rows × cols table, slew-major, refusing one of another
// shape.
func (w *entryWriter) grid(t [][]float64, rows, cols int) error {
	if len(t) != rows {
		return fmt.Errorf("%d table rows over %d slews", len(t), rows)
	}
	for _, row := range t {
		if len(row) != cols {
			return fmt.Errorf("%d table columns over %d loads", len(row), cols)
		}
		for _, f := range row {
			w.float(f)
		}
	}
	return nil
}

// sameBits reports whether two float slices hold the same bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
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

// floatMap reads what entryWriter.floatMap wrote, refusing keys out of
// order; what names the keys in that error.
func (r *entryReader) floatMap(what string) map[string]float64 {
	// A pair takes at least 9 bytes: its key and its value.
	n := r.count(9)
	m := make(map[string]float64, n)
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		k := r.str()
		if i > 0 && k <= prev {
			r.fail(what + " out of order")
		}
		m[k] = r.float()
		prev = k
	}
	return m
}

func (r *entryReader) floats() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = r.float()
	}
	return fs
}

// surface reads an arc's surface against its model's axes.
func (r *entryReader) surface(m *liberty.Model) *liberty.Surface {
	var sf liberty.Surface
	switch r.uvarint() {
	case surfaceNone:
		return nil
	case surfaceModelAxes:
		if len(m.SlewsS) == 0 || len(m.LoadsF) == 0 {
			r.fail("surface over empty model axes")
			return nil
		}
		sf.SlewsS = slices.Clone(m.SlewsS)
		sf.LoadsF = slices.Clone(m.LoadsF)
	case surfaceOwnAxes:
		sf.SlewsS = r.floats()
		sf.LoadsF = r.floats()
	default:
		r.fail("unknown surface tag")
		return nil
	}
	if r.err != nil {
		return nil
	}
	rows, cols := len(sf.SlewsS), len(sf.LoadsF)
	if rows*cols > r.left()/16 {
		r.fail("surface past the bytes left")
		return nil
	}
	sf.DelayS, sf.OutSlewS = r.grid(rows, cols), r.grid(rows, cols)
	return &sf
}

// grid reads a rows × cols table, slew-major.
func (r *entryReader) grid(rows, cols int) [][]float64 {
	t := make([][]float64, rows)
	for i := range t {
		t[i] = make([]float64, cols)
		for j := range t[i] {
			t[i][j] = r.float()
		}
	}
	return t
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
