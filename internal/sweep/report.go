package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"cnfetdk/internal/flow"
)

// PointResult is the outcome of one expanded point: its deterministic
// identity, the flow result (stage traces stripped — their cached/timing
// flags are execution detail, summarized into the counters below), or
// the error that failed it. Millis/CachedStages/TotalStages are
// execution trace: legitimately different run to run, and zeroed by
// Report.Canonical.
type PointResult struct {
	Index  int            `json:"index"`
	ID     string         `json:"id"`
	Params map[string]any `json:"params,omitempty"`

	Result *flow.Result `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`

	Millis       float64 `json:"ms,omitempty"`
	CachedStages int     `json:"cached_stages,omitempty"`
	TotalStages  int     `json:"total_stages,omitempty"`
}

// Stats summarizes one metric over the sweep's points.
type Stats struct {
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
}

// Summarize computes Stats over a series (empty input yields zero Stats).
func Summarize(values []float64) Stats {
	if len(values) == 0 {
		return Stats{}
	}
	s := Stats{Count: len(values), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for _, v := range sorted {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(sorted))
	s.P50 = quantile(sorted, 0.50)
	s.P90 = quantile(sorted, 0.90)
	return s
}

// quantile linearly interpolates the q-quantile of a sorted series.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// YieldPoint is one point of the yield-vs-tube-count curve: the Monte
// Carlo failure rate of the immunity analysis averaged over every sweep
// point that sampled with that tube count.
type YieldPoint struct {
	MCTubes      int     `json:"mc_tubes"`
	Points       int     `json:"points"`
	MeanFailRate float64 `json:"mean_fail_rate"`
	Yield        float64 `json:"yield"`
}

// ParetoPoint is one non-dominated point of the delay/area/immunity
// front (minimizing all three; fail rate is 0 when the point ran no
// Monte Carlo sample).
type ParetoPoint struct {
	Index    int     `json:"index"`
	ID       string  `json:"id"`
	Tech     string  `json:"tech"`
	AreaLam2 float64 `json:"area_lam2"`
	DelayS   float64 `json:"delay_s"`
	FailRate float64 `json:"fail_rate,omitempty"`
}

// RunTrace is the execution record of one sweep run — wall time and the
// cache-sharing evidence. It is the volatile part of a Report: two runs
// of the same spec legitimately differ here (and only here), so
// Canonical strips it.
type RunTrace struct {
	WallMillis         float64 `json:"wall_ms"`
	CacheHitStages     int     `json:"cache_hit_stages"`
	TotalStages        int     `json:"total_stages"`
	CacheEntriesBefore int     `json:"cache_entries_before"`
	CacheEntriesAfter  int     `json:"cache_entries_after"`

	// Fabric execution detail, set when a coordinator merged the report
	// from shards (internal/fabric).
	Leases        int `json:"leases,omitempty"`
	LeaseRetries  int `json:"lease_retries,omitempty"`
	FabricWorkers int `json:"fabric_workers,omitempty"`
}

// Report is the aggregated outcome of one sweep: every point in
// expansion-index order plus derived summaries, curves and fronts.
type Report struct {
	Name   string        `json:"name,omitempty"`
	Spec   Spec          `json:"spec"`
	Points []PointResult `json:"points"`
	Failed int           `json:"failed,omitempty"`
	// Partial marks a salvaged report assembled from an incomplete point
	// set (AssemblePartial): summaries and fronts cover only the points
	// present, and the report must never be byte-compared against a full
	// run. The flag survives Canonical() so such a comparison fails loudly.
	Partial bool `json:"partial,omitempty"`

	// Summary maps "<tech>/<metric>" (and "gain/<metric>") to its
	// statistics over the points that produced it.
	Summary map[string]Stats `json:"summary,omitempty"`
	// YieldVsTubes is the yield curve over the mc_tubes axis.
	YieldVsTubes []YieldPoint `json:"yield_vs_tubes,omitempty"`
	// Pareto is the delay/area/immunity front over the points that
	// measured both area and delay.
	Pareto []ParetoPoint `json:"pareto,omitempty"`

	Trace *RunTrace `json:"trace,omitempty"`
}

// Canonical returns a copy with the execution trace stripped: the
// remaining fields are deterministic for a given spec at any worker
// count, so canonical reports are byte-comparable.
func (r *Report) Canonical() *Report {
	c := *r
	c.Trace = nil
	c.Points = make([]PointResult, len(r.Points))
	for i, p := range r.Points {
		p.Millis, p.CachedStages, p.TotalStages = 0, 0, 0
		c.Points[i] = p
	}
	return &c
}

// CanonicalJSON marshals the canonical report with stable indentation.
func (r *Report) CanonicalJSON() ([]byte, error) {
	return json.MarshalIndent(r.Canonical(), "", "  ")
}

// Assemble builds the Report for spec from externally-executed point
// results — the sweep fabric's merge step: shard reports contribute
// their points (global indices intact), Assemble checks the set covers
// spec's whole index space exactly once, orders it, and derives the
// same summaries, curves and fronts Run would have. Because every
// derived field is a pure function of (spec, ordered points), the
// assembled report's Canonical bytes are identical to a single-process
// Run of the same spec, regardless of how the points were partitioned
// or which worker computed each one. The caller's spec must be the
// unsharded original (no window). Trace is left nil.
func Assemble(spec Spec, points []PointResult) (*Report, error) {
	return assemble(spec, points, false)
}

// AssemblePartial is Assemble's salvage variant: it builds a best-effort
// Report from however many points completed before a sweep failed —
// bounds- and duplicate-checked against the spec's index space, ordered
// by global index, with summaries, curves and fronts derived from just
// the points present. The result carries Partial=true and is for
// triage, not comparison: a salvaged report is not canonical.
func AssemblePartial(spec Spec, points []PointResult) (*Report, error) {
	return assemble(spec, points, true)
}

// assemble is both assemblers: the points must lie in the unwindowed
// spec's index space, each index at most once and, unless partial, every
// index exactly once.
func assemble(spec Spec, points []PointResult, partial bool) (*Report, error) {
	if spec.Window != nil {
		return nil, fmt.Errorf("sweep: assemble wants the unsharded spec, got a window at offset %d", spec.Window.Offset)
	}
	n, err := spec.NumPoints()
	if err != nil {
		return nil, err
	}
	if !partial && len(points) != n {
		return nil, fmt.Errorf("sweep: assemble got %d points for a %d-point spec", len(points), n)
	}
	seen := make([]bool, n)
	for _, pr := range points {
		if pr.Index < 0 || pr.Index >= n {
			return nil, fmt.Errorf("sweep: assemble point index %d outside the %d-point space", pr.Index, n)
		}
		if seen[pr.Index] {
			return nil, fmt.Errorf("sweep: assemble got point index %d twice", pr.Index)
		}
		seen[pr.Index] = true
	}
	ordered := make([]PointResult, len(points))
	copy(ordered, points)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Index < ordered[j].Index })
	rep := buildReport(spec, ordered)
	rep.Partial = partial
	return rep, nil
}

// Metrics flattens the point's scalar outcomes into "<tech>/<metric>"
// (and "gain/<metric>") keys — the view the summary statistics, the CSV
// export and downstream tooling share. Zero-valued analyses that did not
// run are absent; a failed or empty point yields nil.
func (p *PointResult) Metrics() map[string]float64 {
	if p.Result == nil {
		return nil
	}
	m := map[string]float64{}
	for tn, tr := range p.Result.Techs {
		add := func(metric string, v float64) {
			if v != 0 {
				m[tn+"/"+metric] = v
			}
		}
		add("area_lam2", tr.AreaLam2)
		add("utilization", tr.Utilization)
		add("delay_s", tr.DelayS)
		add("energy_j", tr.EnergyJ)
		if vd := tr.VarDelay; vd != nil {
			add("var_delay_mean_s", vd.MeanS)
			add("var_delay_sigma_s", vd.SigmaS)
		}
		if im := tr.Immunity; im != nil {
			m[tn+"/violations"] = float64(im.Violations)
			if im.MCTubes > 0 {
				m[tn+"/mc_fail_rate"] = im.MCFailRate
			}
			if vy := im.Variation; vy != nil {
				m[tn+"/functional_yield"] = vy.FunctionalYield
				m[tn+"/count_yield"] = vy.CountYield
				m[tn+"/align_yield"] = vy.AlignYield
			}
		}
	}
	for g, v := range p.Result.Gains {
		m["gain/"+g] = v
	}
	return m
}

// buildReport aggregates completed points into a Report (Trace is the
// caller's concern).
func buildReport(spec Spec, points []PointResult) *Report {
	rep := &Report{Name: spec.Name, Spec: spec, Points: points}
	metrics := map[string][]float64{}
	type yieldAcc struct {
		points int
		sum    float64
	}
	yields := map[int]*yieldAcc{}

	for _, pr := range points {
		if pr.Error != "" {
			rep.Failed++
			continue
		}
		pm := pr.Metrics()
		names := make([]string, 0, len(pm))
		for name := range pm {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			metrics[name] = append(metrics[name], pm[name])
		}
		if pr.Result == nil {
			continue
		}
		// The curve's x axis is the *requested* per-network sample size
		// (the swept mc_tubes value) — ImmunityResult.MCTubes reports the
		// total checked, which scales with the design's cell count.
		reqTubes := spec.Base.MCTubes
		switch v := pr.Params["mc_tubes"].(type) {
		case int:
			reqTubes = v
		case int64:
			reqTubes = int(v)
		case float64:
			reqTubes = int(v)
		}
		if reqTubes <= 0 {
			continue
		}
		for _, tr := range pr.Result.Techs {
			if im := tr.Immunity; im != nil && im.MCTubes > 0 {
				y := yields[reqTubes]
				if y == nil {
					y = &yieldAcc{}
					yields[reqTubes] = y
				}
				y.points++
				y.sum += im.MCFailRate
			}
		}
	}

	if len(metrics) > 0 {
		rep.Summary = make(map[string]Stats, len(metrics))
		for name, vals := range metrics {
			rep.Summary[name] = Summarize(vals)
		}
	}

	if len(yields) > 0 {
		tubes := make([]int, 0, len(yields))
		for t := range yields {
			tubes = append(tubes, t)
		}
		sort.Ints(tubes)
		for _, t := range tubes {
			y := yields[t]
			mean := y.sum / float64(y.points)
			rep.YieldVsTubes = append(rep.YieldVsTubes, YieldPoint{
				MCTubes: t, Points: y.points, MeanFailRate: mean, Yield: 1 - mean,
			})
		}
	}

	rep.Pareto = paretoFront(points)
	return rep
}

// paretoFront extracts the non-dominated (area, delay, fail-rate) points.
// Each sweep point contributes its CNFET result when present (the paper's
// subject technology), otherwise its single measured technology.
func paretoFront(points []PointResult) []ParetoPoint {
	var cands []ParetoPoint
	for _, pr := range points {
		if pr.Result == nil {
			continue
		}
		tn := "cnfet"
		tr := pr.Result.Techs[tn]
		if tr == nil || tr.AreaLam2 == 0 || tr.DelayS == 0 {
			tn, tr = "", nil
			names := make([]string, 0, len(pr.Result.Techs))
			for n := range pr.Result.Techs {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				if t := pr.Result.Techs[n]; t.AreaLam2 > 0 && t.DelayS > 0 {
					tn, tr = n, t
					break
				}
			}
		}
		if tr == nil {
			continue
		}
		pp := ParetoPoint{Index: pr.Index, ID: pr.ID, Tech: tn, AreaLam2: tr.AreaLam2, DelayS: tr.DelayS}
		if tr.Immunity != nil && tr.Immunity.MCTubes > 0 {
			pp.FailRate = tr.Immunity.MCFailRate
		}
		cands = append(cands, pp)
	}
	var front []ParetoPoint
	for i, p := range cands {
		dominated := false
		for j, q := range cands {
			if i == j {
				continue
			}
			if dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].AreaLam2 != front[j].AreaLam2 {
			return front[i].AreaLam2 < front[j].AreaLam2
		}
		if front[i].DelayS != front[j].DelayS {
			return front[i].DelayS < front[j].DelayS
		}
		return front[i].Index < front[j].Index
	})
	return front
}

// dominates reports whether q is at least as good as p on every
// objective and strictly better on one.
func dominates(q, p ParetoPoint) bool {
	if q.AreaLam2 > p.AreaLam2 || q.DelayS > p.DelayS || q.FailRate > p.FailRate {
		return false
	}
	return q.AreaLam2 < p.AreaLam2 || q.DelayS < p.DelayS || q.FailRate < p.FailRate
}
