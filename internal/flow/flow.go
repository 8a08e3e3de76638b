// Package flow wires the design kit together into the paper's
// logic-to-GDSII flow (Fig 5) and exposes it as a generic design service:
// a serializable Request (circuit, technologies, placement scheme,
// wire-cap model, analyses) executed by Kit.Run(ctx, Request) against a
// named-circuit registry, returning a JSON-stable Result with per-stage
// traces. The full-adder case study (Section V.B) is one registry entry.
//
// The flow runs on the staged pipeline engine (internal/pipeline):
// placements, characterizations and transistor-level simulations
// execute as stages of a dependency graph with bounded parallelism and
// cooperative context cancellation, and every stage result is memoized in
// a kit-scoped content-keyed cache, so repeated or concurrent identical
// jobs skip work already done. See DESIGN.md.
package flow

import (
	"context"
	"fmt"
	"strings"
	"time"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/device"
	"cnfetdk/internal/fault"
	"cnfetdk/internal/pipeline"
	"cnfetdk/internal/place"
	"cnfetdk/internal/rules"
	"cnfetdk/internal/spice"
	"cnfetdk/internal/store"
	"cnfetdk/internal/synth"
)

// WireCapPerNM is the default interconnect capacitance per nanometre of
// estimated (HPWL) net length used when back-annotating placements:
// 0.06 fF/µm, a local-metal value at the 65nm node (routed global wires
// run ~2x higher). Because CNFET gates present far smaller input/output
// capacitances than CMOS, this shared wire load is what pulls the
// full-adder gains below the inverter-chain gains, exactly as in the
// paper's case study 2. Override it per request with
// Request.WireCapPerNM.
const WireCapPerNM = 0.06e-18

// MaxWireCapPerNM bounds Request.WireCapPerNM at 1 fF/µm: capacitance
// per length follows a wire's aspect ratios and dielectric, not the node,
// so on-chip wires sit near 0.2 fF/µm at every node.
const MaxWireCapPerNM = 1e-18

// Kit is the technology pair needed for CMOS-vs-CNFET comparisons, plus
// the pipeline machinery (worker pool width, memo cache, stage trace) the
// flow entry points run on. One kit serves concurrent Run jobs; its
// libraries build each cell once, on first use, and its cache is
// singleflight-safe.
type Kit struct {
	CNFET *cells.Library
	CMOS  *cells.Library

	libs map[rules.Tech]*cells.Library
	// rulesKey digests each library's full design-rule struct once at
	// construction; stage keys embed the digest instead of re-formatting
	// the 12-field struct on every (possibly fully cached) Run.
	rulesKey     map[rules.Tech]string
	cache        *pipeline.Cache
	trace        *pipeline.Trace
	workers      int
	faults       *fault.Injector
	stageTimeout time.Duration
}

// Options tunes kit construction and flow execution; prefer the
// functional Option form with New.
type Options struct {
	// Workers bounds every pool the kit runs (stage graphs, the fan-out
	// inside a stage, a sweep's points); <= 0 selects one worker per
	// CPU, 1 is the sequential reference path. No library build reads
	// it: a cell is laid out and design-rule-checked on its first use,
	// inside the stage that uses it.
	Workers int
	// Trace, when set, receives per-stage timing reports from every flow
	// graph the kit runs. A cell's first-use build is timed inside its
	// stage's report.
	Trace *pipeline.Trace
	// CacheEntries bounds the kit's in-memory stage cache (0 =
	// unbounded), evicted least-recently-used; set it on long-running
	// servers so client-varied requests cannot grow the cache without
	// limit.
	CacheEntries int
	// StoreDir, when non-empty, layers a persistent content-addressed
	// artifact store under the memory cache at this directory: stage
	// results survive the process, so a fresh kit (a daemon restart, a
	// new CLI invocation, a resumed sweep) warm-starts from results an
	// earlier one computed. The directory may be shared by concurrent
	// processes.
	StoreDir string
	// StoreBudget bounds the disk store's total bytes; past it the
	// oldest entries are evicted (0 = unbounded). Ignored without
	// StoreDir.
	StoreBudget int64
	// Faults arms the kit's fault-injection points (flow stages, the
	// artifact store); nil — the default — is free.
	Faults *fault.Injector
	// StageTimeout is the kit's per-stage watchdog: a stage that runs
	// past it is cancelled and fails with a typed
	// pipeline.StageTimeoutError. 0 disables. It is the only bound: a
	// request cannot lift or tighten it.
	StageTimeout time.Duration
}

// Option is a functional kit-construction option.
type Option func(*Options)

// WithWorkers bounds every pool the kit runs (<= 0 selects one worker per
// CPU, 1 is the sequential reference path).
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithTrace attaches a per-stage timing sink to the kit.
func WithTrace(t *pipeline.Trace) Option { return func(o *Options) { o.Trace = t } }

// WithCacheLimit bounds the kit's in-memory stage cache to n completed
// entries, evicted least-recently-used (n <= 0 keeps it unbounded).
func WithCacheLimit(n int) Option { return func(o *Options) { o.CacheEntries = n } }

// WithStore layers a persistent artifact store at dir under the kit's
// memory cache: serializable stage results are written through to disk
// and served back — byte-identically — to any later kit opened on the
// same directory, including in other processes.
func WithStore(dir string) Option { return func(o *Options) { o.StoreDir = dir } }

// WithStoreBudget bounds the persistent store to maxBytes, evicting the
// oldest entries past it (0 = unbounded; needs WithStore).
func WithStoreBudget(maxBytes int64) Option { return func(o *Options) { o.StoreBudget = maxBytes } }

// WithFaults arms the kit's fault-injection points with a compiled
// schedule; nil (the default) disables injection at zero cost.
func WithFaults(inj *fault.Injector) Option { return func(o *Options) { o.Faults = inj } }

// WithStageTimeout arms the kit's per-stage watchdog (0 disables). See
// Options.StageTimeout.
func WithStageTimeout(d time.Duration) Option { return func(o *Options) { o.StageTimeout = d } }

// kitTechs is the technology table one constructor serves.
var kitTechs = []rules.Tech{rules.CNFET, rules.CMOS}

// New builds the kit: it opens the store, if any, and registers both
// technology libraries, whose cells are laid out and design-rule-checked
// on first use (cells.NewLibrary). The kit's memo cache starts empty.
// Construction runs no stage, so it does not read the context.
func New(_ context.Context, opts ...Option) (*Kit, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	// disk stays a nil interface without a store: a nil *store.Disk
	// inside it would read as a disk tier.
	var disk pipeline.BlobStore
	if o.StoreDir != "" {
		d, err := store.Open(o.StoreDir, store.WithBudget(o.StoreBudget), store.WithInjector(o.Faults))
		if err != nil {
			return nil, fmt.Errorf("flow: artifact store: %w", err)
		}
		disk = d
	}
	k := &Kit{
		libs:         map[rules.Tech]*cells.Library{},
		rulesKey:     map[rules.Tech]string{},
		cache:        pipeline.NewCache(pipeline.NewMemory(o.CacheEntries), disk),
		trace:        o.Trace,
		workers:      o.Workers,
		faults:       o.Faults,
		stageTimeout: o.StageTimeout,
	}
	if k.workers <= 0 {
		k.workers = pipeline.DefaultWorkers()
	}
	for _, tech := range kitTechs {
		lib := cells.NewLibrary(tech)
		k.libs[tech] = lib
		k.rulesKey[tech] = pipeline.Key("rules", lib.Rules)
	}
	k.CNFET, k.CMOS = k.libs[rules.CNFET], k.libs[rules.CMOS]
	return k, nil
}

// LibFor selects the library for a technology; unknown technologies
// return ErrUnknownTech.
func (k *Kit) LibFor(t rules.Tech) (*cells.Library, error) {
	if lib, ok := k.libs[t]; ok {
		return lib, nil
	}
	return nil, fmt.Errorf("%w: %d", ErrUnknownTech, int(t))
}

// Workers reports the kit's worker bound (one per CPU when WithWorkers
// was <= 0): the width of its pools and of a sweep's point fan-out.
func (k *Kit) Workers() int { return k.workers }

// CacheLen reports how many stage results the kit's memo cache holds.
func (k *Kit) CacheLen() int { return k.cache.Len() }

// CacheStats snapshots the kit's artifact store: memory-tier counters
// always, disk-tier counters when the kit was built WithStore.
func (k *Kit) CacheStats() pipeline.StoreStats { return k.cache.Stats() }

// PurgeCache drops every completed stage result from every store tier
// (memory and, when configured, disk). In-flight computations finish and
// re-populate normally.
func (k *Kit) PurgeCache() error { return k.cache.Purge() }

// BuildCircuit instantiates a netlist into a spice circuit, tying primary
// inputs to the given node names (callers add sources) and loading each
// net with wireCapF (net name -> farads). The supply source index is
// returned for energy probing.
func (k *Kit) BuildCircuit(lib *cells.Library, nl *synth.Netlist, wireCapF map[string]float64) (*spice.Circuit, int, error) {
	ckt := spice.New()
	vdd := ckt.AddV("vdd", "VDD", "0", spice.DC(device.Vdd))
	for _, inst := range nl.Instances {
		c, err := lib.Get(inst.Cell)
		if err != nil {
			return nil, 0, fmt.Errorf("flow: %s: %w", inst.Name, err)
		}
		conns := map[string]string{}
		for pin, net := range inst.Conns {
			conns[pin] = net
		}
		if err := lib.Instantiate(ckt, inst.Name, c, conns); err != nil {
			return nil, 0, err
		}
	}
	for net, capF := range wireCapF {
		if capF > 0 && ckt.HasNode(net) {
			ckt.AddC("cw."+net, net, "0", capF)
		}
	}
	return ckt, vdd, nil
}

// WireCapsWith converts placement HPWL (λ) into lumped net capacitances
// under an explicit capacitance-per-nm model (WireCapPerNM is the
// package default).
func WireCapsWith(p *place.Placement, nl *synth.Netlist, lambdaNM, capPerNM float64) map[string]float64 {
	out := map[string]float64{}
	for net, l := range p.HPWL(nl) {
		out[net] = l * lambdaNM * capPerNM
	}
	return out
}

// driveOf parses the strength suffix of a cell name ("NAND2_2X" -> 2).
func driveOf(cell string) float64 {
	i := strings.LastIndex(cell, "_")
	if i < 0 {
		return 1
	}
	var d float64
	if _, err := fmt.Sscanf(cell[i+1:], "%fX", &d); err == nil && d > 0 {
		return d
	}
	return 1
}

// CellAreaGain reports the case-study-1 inverter area gain at a given
// transistor width multiple (1 = 4λ): CMOS scheme-1 cell area over CNFET
// scheme-1 cell area.
func (k *Kit) CellAreaGain(widthMult float64) (float64, error) {
	name := fmt.Sprintf("INV_%gX", widthMult)
	cn, err := k.CNFET.Get(name)
	if err != nil {
		return 0, err
	}
	cm, err := k.CMOS.Get(name)
	if err != nil {
		return 0, err
	}
	// Height-only comparison per the paper's formula (common row width).
	hCN := cn.Layout.PUN.BBox.H() + cn.Layout.PDN.BBox.H() + k.CNFET.Rules.NetworkGap
	hCM := cm.Layout.PUN.BBox.H() + cm.Layout.PDN.BBox.H() + k.CMOS.Rules.NetworkGap
	return float64(hCM) / float64(hCN), nil
}
