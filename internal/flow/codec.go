package flow

import (
	"encoding/json"
	"fmt"

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
// a stage in a process that never computed it.
var (
	codecNetlist  = pipeline.RegisterCodec(pipeline.JSONCodec[*synth.Netlist]("flow/netlist@v1"))
	codecWireCaps = pipeline.RegisterCodec(pipeline.JSONCodec[map[string]float64]("flow/wirecaps@v1"))
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

// placedCellJSON is the serialized form of one placed cell: everything
// but the library cell pointer, which decode re-resolves by name.
type placedCellJSON struct {
	Inst synth.Instance `json:"inst"`
	X    geom.Coord     `json:"x"`
	Y    geom.Coord     `json:"y"`
	W    geom.Coord     `json:"w"`
	H    geom.Coord     `json:"h"`
}

// placementJSON is the serialized form of a placement.
type placementJSON struct {
	Name        string           `json:"name"`
	Scheme      layout.Scheme    `json:"scheme"`
	Cells       []placedCellJSON `json:"cells"`
	Width       geom.Coord       `json:"width"`
	Height      geom.Coord       `json:"height"`
	NaturalArea float64          `json:"natural_area"`
}

// placementCodec serializes *place.Placement against a specific library:
// cell pointers are stored as names and re-resolved on decode, which is
// sound because library construction is deterministic and the stage key
// already pins the technology and its design rules. A decode against a
// library missing the named cell fails, which the store treats as a miss
// and recomputes.
func placementCodec(lib *cells.Library) pipeline.Codec {
	return pipeline.NewCodec("flow/placement@v1",
		func(v any) ([]byte, error) {
			p, ok := v.(*place.Placement)
			if !ok {
				return nil, fmt.Errorf("flow: placement codec: encoding %T", v)
			}
			out := placementJSON{
				Name: p.Name, Scheme: p.Scheme,
				Width: p.Width, Height: p.Height, NaturalArea: p.NaturalArea,
				Cells: make([]placedCellJSON, len(p.Cells)),
			}
			for i, pc := range p.Cells {
				out.Cells[i] = placedCellJSON{Inst: pc.Inst, X: pc.X, Y: pc.Y, W: pc.W, H: pc.H}
			}
			return json.Marshal(out)
		},
		func(data []byte) (any, error) {
			var in placementJSON
			if err := json.Unmarshal(data, &in); err != nil {
				return nil, err
			}
			p := &place.Placement{
				Name: in.Name, Scheme: in.Scheme,
				Width: in.Width, Height: in.Height, NaturalArea: in.NaturalArea,
				Cells: make([]place.PlacedCell, len(in.Cells)),
			}
			for i, pc := range in.Cells {
				c, err := lib.Get(pc.Inst.Cell)
				if err != nil {
					return nil, fmt.Errorf("flow: placement codec: %w", err)
				}
				p.Cells[i] = place.PlacedCell{Inst: pc.Inst, Cell: c, X: pc.X, Y: pc.Y, W: pc.W, H: pc.H}
			}
			return p, nil
		})
}
