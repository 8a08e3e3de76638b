// Package immunity verifies that CNFET layouts stay functional under
// mispositioned carbon nanotubes — the property the paper's compact layout
// technique guarantees by construction (Section III).
//
// Model: a tube is a straight line. Walking it left to right within the
// layout's active region yields an ordered crossing sequence of metal
// contacts (net-labelled), gate stripes (input-labelled) and cuts (etched
// regions or leaving the active region). Between two consecutively touched
// contacts with no intervening cut, the tube conducts exactly when every
// crossed gate is ON — a product term (cube). The span is benign iff that
// cube implies the network's intended conduction function between the two
// nets (same-net spans are trivially benign). A layout is immune iff every
// realizable tube yields only benign spans.
//
// Two verdict engines are provided: Monte Carlo sampling, and a
// deterministic critical-line enumeration over pairs of geometry corners
// (if any violating line exists, a violating line exists arbitrarily close
// to one through two corners of the arrangement, so perturbed corner pairs
// are a complete certificate for open violation sets).
package immunity

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"cnfetdk/internal/geom"
	"cnfetdk/internal/layout"
	"cnfetdk/internal/logic"
	"cnfetdk/internal/network"
	"cnfetdk/internal/pipeline"
)

// Checker verifies one pull network's geometry against its intended
// conduction behaviour. A Checker is not safe for concurrent use (the
// memo caches and tube scratch below are unsynchronized); parallel runs
// fork one checker per shard instead.
type Checker struct {
	Geom   *layout.NetGeom
	Net    *network.Network
	Inputs []string

	conduct map[[2]string]*logic.Table
	cubeTab map[string]*logic.Table

	// Per-tube scratch, reused across CheckTube calls so batch runs
	// (Monte Carlo shards, critical-line enumeration) stop allocating in
	// steady state.
	seqBuf  []crossing
	clipBuf []geom.Span
	gateBuf []crossing
	condBuf []CondSpan
	litsBuf []logic.Literal
	keyBuf  []byte
}

// NewChecker builds a checker for one network. inputs orders the truth
// tables and must cover every gate input.
func NewChecker(g *layout.NetGeom, nw *network.Network, inputs []string) *Checker {
	return &Checker{
		Geom:    g,
		Net:     nw,
		Inputs:  inputs,
		conduct: map[[2]string]*logic.Table{},
		cubeTab: map[string]*logic.Table{},
	}
}

// Violation describes a tube span that conducts when the network must not.
type Violation struct {
	Tube   geom.Line
	NetA   string
	NetB   string
	Cube   logic.Cube
	Reason string
}

// String renders a violation.
func (v Violation) String() string {
	return fmt.Sprintf("tube %.1f° %s-%s conducts under %s: %s",
		v.Tube.AngleDeg(), v.NetA, v.NetB, v.Cube, v.Reason)
}

// crossing is one geometry crossing along a tube.
type crossing struct {
	t    float64 // parameter midpoint along the tube
	t0   float64 // span start
	t1   float64 // span end
	kind layout.ElemKind
	net  string
	in   string
	neg  bool
}

// trace computes the ordered crossing sequence of a tube, plus the maximal
// intervals of the tube covered by active material. Both returned slices
// are checker-owned scratch, valid until the next trace.
func (c *Checker) trace(line geom.Line) (seq []crossing, covered []geom.Span) {
	seq = c.seqBuf[:0]
	for _, e := range c.Geom.Elements {
		switch e.Kind {
		case layout.ElemContact, layout.ElemGate, layout.ElemEtch:
		default:
			continue
		}
		sp, ok := line.ClipToRect(e.Rect)
		if !ok {
			continue
		}
		seq = append(seq, crossing{
			t: sp.Mid(), t0: sp.T0, t1: sp.T1,
			kind: e.Kind, net: e.Net, in: e.Input, neg: e.Neg,
		})
	}
	c.seqBuf = seq
	slices.SortFunc(seq, func(a, b crossing) int {
		switch {
		case a.t < b.t:
			return -1
		case a.t > b.t:
			return 1
		}
		return 0
	})

	spans := c.clipBuf[:0]
	for _, r := range c.Geom.Active {
		if sp, ok := line.ClipToRect(r); ok {
			spans = append(spans, sp)
		}
	}
	c.clipBuf = spans
	covered = mergeSpans(spans)
	return seq, covered
}

// mergeSpans merges overlapping/abutting parameter intervals in place and
// returns the merged prefix.
func mergeSpans(spans []geom.Span) []geom.Span {
	if len(spans) == 0 {
		return nil
	}
	slices.SortFunc(spans, func(a, b geom.Span) int {
		switch {
		case a.T0 < b.T0:
			return -1
		case a.T0 > b.T0:
			return 1
		}
		return 0
	})
	const eps = 1e-9
	out := spans[:1]
	for _, s := range spans[1:] {
		last := &out[len(out)-1]
		if s.T0 <= last.T1+eps {
			if s.T1 > last.T1 {
				last.T1 = s.T1
			}
		} else {
			out = append(out, s)
		}
	}
	return out
}

// inCovered reports whether [a,b] lies inside one covered interval.
func inCovered(covered []geom.Span, a, b float64) bool {
	const eps = 1e-9
	for _, s := range covered {
		if a >= s.T0-eps && b <= s.T1+eps {
			return true
		}
	}
	return false
}

// conductTable returns (caching) the intended conduction function between
// two nets of the network. A net the network does not know (e.g. a
// mislabelled contact) can never legitimately conduct to anything, so the
// intended function is constant false.
func (c *Checker) conductTable(u, v string) *logic.Table {
	key := [2]string{u, v}
	if u > v {
		key = [2]string{v, u}
	}
	if t, ok := c.conduct[key]; ok {
		return t
	}
	known := map[string]bool{}
	for _, n := range c.Net.Nets() {
		known[n] = true
	}
	var t *logic.Table
	if known[u] && known[v] {
		t = c.Net.Conduct(key[0], key[1], c.Inputs)
	} else {
		t = logic.NewTable(c.Inputs)
	}
	c.conduct[key] = t
	return t
}

// cubeTable returns (caching) the truth table of a conduction cube. The
// cache key is built in checker-owned scratch, so a hit costs no
// allocation (the map lookup through string(keyBuf) does not copy).
func (c *Checker) cubeTable(cu logic.Cube) *logic.Table {
	key := c.keyBuf[:0]
	for _, l := range cu.Lits {
		key = append(key, l.Input...)
		if l.Neg {
			key = append(key, '\'')
		}
		key = append(key, '&')
	}
	c.keyBuf = key
	if t, ok := c.cubeTab[string(key)]; ok {
		return t
	}
	t := logic.TableOfCube(cu, c.Inputs)
	c.cubeTab[string(key)] = t
	return t
}

// CondSpan is one conductive tube span between two touched contacts: it
// conducts exactly when its cube is satisfied (always, for metallic tubes
// or bare doped spans — the empty cube).
type CondSpan struct {
	NetA, NetB string
	Cube       logic.Cube
	Metallic   bool
}

// CondSpans extracts every conductive span of a tube: consecutive contact
// touches with continuous active coverage and no etch crossing in between.
// The cube collects the crossed gates with device polarity applied
// (p-FETs conduct on 0, n-FETs on 1, complemented inputs flipped);
// metallic tubes ignore gates entirely. The returned spans and their
// cubes are freshly allocated and safe to retain.
func (c *Checker) CondSpans(line geom.Line, metallic bool) []CondSpan {
	spans := c.condSpans(line, metallic)
	if len(spans) == 0 {
		return nil
	}
	out := make([]CondSpan, len(spans))
	for i, sp := range spans {
		sp.Cube = copyCube(sp.Cube)
		out[i] = sp
	}
	return out
}

// condSpans is CondSpans into checker-owned scratch: the returned slice
// and the cubes inside it are valid until the next tube is traced.
func (c *Checker) condSpans(line geom.Line, metallic bool) []CondSpan {
	seq, covered := c.trace(line)
	out := c.condBuf[:0]
	c.litsBuf = c.litsBuf[:0]
	lastContact := -1
	gates := c.gateBuf[:0]
	for i, cr := range seq {
		switch cr.kind {
		case layout.ElemEtch:
			lastContact = -1
			gates = gates[:0]
		case layout.ElemGate:
			gates = append(gates, cr)
		case layout.ElemContact:
			if lastContact >= 0 {
				prev := seq[lastContact]
				// The span counts only if fully on active material.
				if inCovered(covered, prev.t1, cr.t0) {
					out = append(out, CondSpan{
						NetA:     prev.net,
						NetB:     cr.net,
						Cube:     c.buildCube(gates, metallic),
						Metallic: metallic,
					})
				}
			}
			lastContact = i
			gates = gates[:0]
		}
	}
	c.gateBuf = gates
	c.condBuf = out
	return out
}

// buildCube folds the crossed gates into a conduction cube whose literals
// live in the checker's scratch arena (copyCube before retaining). The
// gate count per span is tiny, so duplicate literals are dropped by
// linear scan instead of a map.
func (c *Checker) buildCube(gates []crossing, metallic bool) logic.Cube {
	if metallic || len(gates) == 0 {
		return logic.Cube{}
	}
	start := len(c.litsBuf)
	for _, g := range gates {
		neg := c.Net.Type == network.PFET
		if g.neg {
			neg = !neg
		}
		dup := false
		for _, l := range c.litsBuf[start:] {
			if l.Input == g.in && l.Neg == neg {
				dup = true
				break
			}
		}
		if !dup {
			c.litsBuf = append(c.litsBuf, logic.Literal{Input: g.in, Neg: neg})
		}
	}
	return logic.Cube{Lits: c.litsBuf[start:]}
}

// copyCube deep-copies a scratch-arena cube so it can outlive the tube.
func copyCube(cu logic.Cube) logic.Cube {
	if len(cu.Lits) == 0 {
		return logic.Cube{}
	}
	return logic.Cube{Lits: append([]logic.Literal(nil), cu.Lits...)}
}

// CheckTube analyses one tube (semiconducting unless metallic) and returns
// any violating spans. The verdict path is allocation-free for a clean
// tube; violations (the rare case) are copied out of the scratch arena.
func (c *Checker) CheckTube(line geom.Line, metallic bool) []Violation {
	var out []Violation
	for _, sp := range c.condSpans(line, metallic) {
		if sp.NetA == sp.NetB {
			continue
		}
		cubeT := c.cubeTable(sp.Cube)
		want := c.conductTable(sp.NetA, sp.NetB)
		if cubeT.Implies(want) {
			continue
		}
		reason := "conduction not implied by intended network function"
		if len(sp.Cube.Lits) == 0 {
			reason = "unconditional doped path (short)"
			if sp.Metallic {
				reason = "metallic tube short"
			}
		}
		out = append(out, Violation{Tube: line, NetA: sp.NetA, NetB: sp.NetB, Cube: copyCube(sp.Cube), Reason: reason})
	}
	return out
}

// Report summarizes a verification run.
type Report struct {
	TubesChecked int
	BadTubes     int
	Violations   []Violation
}

// Immune reports whether no violations were found.
func (r Report) Immune() bool { return r.BadTubes == 0 }

// FailureRate returns the fraction of checked tubes that violate.
func (r Report) FailureRate() float64 {
	if r.TubesChecked == 0 {
		return 0
	}
	return float64(r.BadTubes) / float64(r.TubesChecked)
}

// fork clones the checker with fresh memo caches. Geometry, network and
// input ordering are shared read-only; the caches are the only mutable
// state, so each shard of a parallel run works on its own fork.
func (c *Checker) fork() *Checker { return NewChecker(c.Geom, c.Net, c.Inputs) }

// shard is one contiguous tube-index range of a batched run.
type shard struct{ lo, hi int }

// shardRanges splits n items into count near-equal contiguous ranges.
// The split depends only on n, never on the worker count, so batched
// results are reproducible on any machine.
func shardRanges(n, count int) []shard {
	if count > n {
		count = n
	}
	if count < 1 {
		count = 1
	}
	out := make([]shard, 0, count)
	for i := 0; i < count; i++ {
		lo := i * n / count
		hi := (i + 1) * n / count
		if lo < hi {
			out = append(out, shard{lo, hi})
		}
	}
	return out
}

// defaultShards picks the shard count for an n-tube batch: ~64 tubes per
// shard (enough work to amortize the fork), capped at 64 shards.
func defaultShards(n int) int {
	count := (n + 63) / 64
	if count > 64 {
		count = 64
	}
	return count
}

// shardVerdict is one shard's folded result: full counters plus only the
// prefix of per-tube violation groups a merge could ever retain. The
// local retention rule (keep groups while fewer than 32 violations are
// held) mirrors the global one, so memory stays bounded per shard while
// the merged report is byte-identical to a sequential scan: the global
// rule stops retaining no later than the local rule does.
type shardVerdict struct {
	checked int
	bad     int
	groups  [][]Violation
	held    int // violations across groups
}

// add folds one tube's violation list into the verdict.
func (s *shardVerdict) add(vs []Violation) {
	s.checked++
	if len(vs) == 0 {
		return
	}
	s.bad++
	if s.held < 32 {
		s.groups = append(s.groups, vs)
		s.held += len(vs)
	}
}

// mergeShardVerdicts combines shard verdicts in shard (= tube index)
// order, replaying the sequential loop's retention rule over the
// retained groups.
func mergeShardVerdicts(shards []shardVerdict) Report {
	rep := Report{}
	for _, s := range shards {
		rep.TubesChecked += s.checked
		rep.BadTubes += s.bad
		for _, g := range s.groups {
			if len(rep.Violations) < 32 {
				rep.Violations = append(rep.Violations, g...)
			}
		}
	}
	return rep
}

// sampleLine draws one random tube crossing the bounding box with angle
// up to maxAngleDeg (uniform) and uniform vertical offset.
func sampleLine(bb geom.Rect, maxAngleDeg float64, rng *rand.Rand) geom.Line {
	w, h := float64(bb.W()), float64(bb.H())
	y := float64(bb.Min.Y) - h*0.25 + rng.Float64()*h*1.5
	ang := (2*rng.Float64() - 1) * maxAngleDeg * math.Pi / 180
	dx := w * 1.5
	dy := math.Tan(ang) * dx
	return geom.Ln(float64(bb.Min.X)-w*0.25, y, float64(bb.Min.X)-w*0.25+dx, y+dy)
}

// MonteCarloCtx samples n random tubes crossing the layout with angles
// up to maxAngleDeg (uniform) and uniform vertical offsets, and checks
// each. The batch is sharded across the worker pool (<= 0 selects one
// worker per CPU; 1 is the sequential reference path); rng seeds the run
// (one draw) and each shard derives its own deterministic RNG, so the
// report depends only on n, the angle bound and the seed — never on the
// worker count. Once ctx is cancelled no further shards are dispatched
// and the run returns ctx.Err() (a partial report is never returned —
// the seeded-shard determinism guarantee only holds for complete
// batches).
func (c *Checker) MonteCarloCtx(ctx context.Context, n int, maxAngleDeg float64, rng *rand.Rand, workers int) (Report, error) {
	if n <= 0 {
		return Report{}, nil
	}
	base := rng.Int63()
	shards := shardRanges(n, defaultShards(n))
	verdicts, err := pipeline.MapCtx(ctx, workers, shards, func(si int, sh shard) (shardVerdict, error) {
		srng := rand.New(rand.NewSource(base + int64(si)*0x9E3779B9))
		ck := c.fork()
		var out shardVerdict
		bb := ck.Geom.BBox
		for i := sh.lo; i < sh.hi; i++ {
			line := sampleLine(bb, maxAngleDeg, srng)
			out.add(ck.CheckTube(line, false))
		}
		return out, nil
	})
	if err != nil {
		return Report{}, err
	}
	return mergeShardVerdicts(verdicts), nil
}

// CriticalLines deterministically enumerates candidate violating lines:
// all lines through pairs of element/active corners, each perturbed by ±ε
// in both endpoints' y (violating line sets are open, so a violation
// implies a violating line near a corner-pair line). Returns the combined
// report; an Immune() result is a strong certificate for straight tubes of
// any angle.
func (c *Checker) CriticalLines() Report {
	var pts []geom.FPoint
	add := func(r geom.Rect) {
		for _, p := range r.Corners() {
			pts = append(pts, p.ToF())
		}
	}
	for _, e := range c.Geom.Elements {
		switch e.Kind {
		case layout.ElemContact, layout.ElemGate, layout.ElemEtch:
			add(e.Rect)
		}
	}
	for _, r := range c.Geom.Active {
		add(r)
	}
	rep := Report{}
	const eps = 1e-4
	offs := []float64{-eps, eps}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			a, b := pts[i], pts[j]
			if math.Abs(a.X-b.X) < 1e-12 {
				continue // vertical line cannot cross contact columns in sequence
			}
			for _, da := range offs {
				for _, db := range offs {
					line := extendLine(geom.Ln(a.X, a.Y+da, b.X, b.Y+db), c.Geom.BBox)
					vs := c.CheckTube(line, false)
					rep.TubesChecked++
					if len(vs) > 0 {
						rep.BadTubes++
						if len(rep.Violations) < 32 {
							rep.Violations = append(rep.Violations, vs...)
						}
					}
				}
			}
		}
	}
	return rep
}

// extendLine stretches a segment so it spans well beyond the bounding box.
func extendLine(l geom.Line, bb geom.Rect) geom.Line {
	dx := l.B.X - l.A.X
	dy := l.B.Y - l.A.Y
	n := math.Hypot(dx, dy)
	if n == 0 {
		return l
	}
	reach := (float64(bb.W()) + float64(bb.H())) * 2
	ux, uy := dx/n, dy/n
	return geom.Ln(l.A.X-ux*reach, l.A.Y-uy*reach, l.B.X+ux*reach, l.B.Y+uy*reach)
}
