package flow

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"
)

// The job-response renderer: one hand-written JSON writer for a Result,
// in two layouts. AppendIndent writes the two-space layout with a
// trailing newline that json.Encoder writes under SetIndent("", "  "),
// which is how cnfetd answers /v1/jobs; MarshalJSON writes the compact
// layout that json.Marshal writes, which is how sweep reports and
// stream lines carry a Result. Both match encoding/json byte for byte
// over the same fields (TestResultJSONMatchesEncodingJSON and
// FuzzRenderResult hold them to it):
//
//   - fields in declaration order, omitempty as tagged (-0 is empty),
//     a nil slice or map that is not omitted as null;
//   - map keys in increasing byte order (instance delays are kept in
//     that order, so nothing is sorted per render);
//   - floats in the shortest form that round-trips, with an exponent
//     below 1e-6 and from 1e21 up, and a NaN or ±Inf an error;
//   - strings with HTML escaping; one that is not plain printable ASCII
//     is escaped by encoding/json itself;
//   - byte slices in standard base64.
//
// Nothing is reflected over, sorted or re-indented per request.

// AppendIndent appends r's JSON in the two-space indented layout,
// trailing newline included, and returns the extended buffer.
func (r *Result) AppendIndent(dst []byte) ([]byte, error) {
	e := renderer{buf: dst, indent: true}
	e.result(r)
	e.buf = append(e.buf, '\n')
	return e.buf, e.err
}

// MarshalJSON renders r compactly.
func (r *Result) MarshalJSON() ([]byte, error) {
	var e renderer
	e.result(r)
	return e.buf, e.err
}

// MarshalJSON renders the delays as the JSON object a map from name to
// delay renders as.
func (ds InstanceDelays) MarshalJSON() ([]byte, error) {
	var e renderer
	e.delays(ds)
	return e.buf, e.err
}

// UnmarshalJSON reads a JSON object of delays in any key order, as a
// map would: a repeated name keeps its last value, and null is nil.
func (ds *InstanceDelays) UnmarshalJSON(data []byte) error {
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m == nil {
		*ds = nil
		return nil
	}
	out := make(InstanceDelays, 0, len(m))
	for _, name := range slices.Sorted(maps.Keys(m)) {
		out = append(out, InstanceDelay{Name: name, DelayS: m[name]})
	}
	*ds = out
	return nil
}

// sortedKeys returns m's keys in increasing byte order, the order
// encoding/json writes a map's members in.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// renderer appends one JSON value. An object or array is open(), its
// members are written after key() or elem(), and it is close()d; the
// layout decides only the whitespace around them.
type renderer struct {
	buf    []byte
	indent bool
	depth  int
	empty  bool // the innermost open object or array has no member yet
	err    error
}

func (e *renderer) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *renderer) open(c byte) {
	e.buf = append(e.buf, c)
	e.depth++
	e.empty = true
}

// close ends the innermost object or array; an empty one stays on its
// opening line, as json.Indent leaves {} and [].
func (e *renderer) close(c byte) {
	e.depth--
	if !e.empty {
		e.newline()
	}
	e.buf = append(e.buf, c)
	e.empty = false
}

func (e *renderer) newline() {
	if !e.indent {
		return
	}
	e.buf = append(e.buf, '\n')
	for range e.depth {
		e.buf = append(e.buf, ' ', ' ')
	}
}

// elem starts the next member of the innermost object or array.
func (e *renderer) elem() {
	if !e.empty {
		e.buf = append(e.buf, ',')
	}
	e.empty = false
	e.newline()
}

// key starts the member named k, a field name that needs no escaping.
func (e *renderer) key(k string) {
	e.elem()
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, k...)
	e.buf = append(e.buf, '"')
	e.colon()
}

// mapKey starts the member named by map key k.
func (e *renderer) mapKey(k string) {
	e.elem()
	e.str(k)
	e.colon()
}

func (e *renderer) colon() {
	if e.indent {
		e.buf = append(e.buf, ':', ' ')
		return
	}
	e.buf = append(e.buf, ':')
}

func (e *renderer) null() { e.buf = append(e.buf, "null"...) }

func (e *renderer) int(n int) { e.buf = strconv.AppendInt(e.buf, int64(n), 10) }

func (e *renderer) bool(b bool) { e.buf = strconv.AppendBool(e.buf, b) }

// float writes f as encoding/json writes a float64.
func (e *renderer) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.fail(&json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)})
		e.buf = append(e.buf, '0')
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		// e-07 becomes e-7.
		if n := len(e.buf); n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
}

// str writes s as a JSON string with HTML escaping. Plain printable
// ASCII other than " \ < > & is written as it is; any other string is
// escaped by encoding/json.
func (e *renderer) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			e.buf = append(e.buf, b...)
			return
		}
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

func (e *renderer) strs(ss []string) {
	if ss == nil {
		e.null()
		return
	}
	e.open('[')
	for _, s := range ss {
		e.elem()
		e.str(s)
	}
	e.close(']')
}

// The optional members: written only when not empty, as omitempty does.

func (e *renderer) optFloat(k string, f float64) {
	if f != 0 {
		e.key(k)
		e.float(f)
	}
}

func (e *renderer) optInt(k string, n int) {
	if n != 0 {
		e.key(k)
		e.int(n)
	}
}

func (e *renderer) optStr(k, s string) {
	if s != "" {
		e.key(k)
		e.str(s)
	}
}

func (e *renderer) optStrs(k string, ss []string) {
	if len(ss) > 0 {
		e.key(k)
		e.strs(ss)
	}
}

func (e *renderer) result(r *Result) {
	if r == nil {
		e.null()
		return
	}
	e.open('{')
	e.key("circuit")
	e.str(r.Circuit)
	e.key("instances")
	e.int(r.Instances)
	e.key("nets")
	e.int(r.Nets)
	e.key("inputs")
	e.strs(r.Inputs)
	e.key("outputs")
	e.strs(r.Outputs)
	e.key("techs")
	if r.Techs == nil {
		e.null()
	} else {
		e.open('{')
		for _, tn := range sortedKeys(r.Techs) {
			e.mapKey(tn)
			e.tech(r.Techs[tn])
		}
		e.close('}')
	}
	if len(r.Gains) > 0 {
		e.key("gains")
		e.open('{')
		for _, name := range sortedKeys(r.Gains) {
			e.mapKey(name)
			e.float(r.Gains[name])
		}
		e.close('}')
	}
	e.key("stages")
	if r.Stages == nil {
		e.null()
	} else {
		e.open('[')
		for i := range r.Stages {
			e.elem()
			e.stage(&r.Stages[i])
		}
		e.close(']')
	}
	e.close('}')
}

func (e *renderer) stage(st *StageTrace) {
	e.open('{')
	e.key("stage")
	e.str(st.Stage)
	e.key("ms")
	e.float(st.Millis)
	if st.Cached {
		e.key("cached")
		e.bool(true)
	}
	e.optStr("error", st.Error)
	e.close('}')
}

func (e *renderer) tech(t *TechResult) {
	if t == nil {
		e.null()
		return
	}
	e.open('{')
	e.key("tech")
	e.str(t.Tech)
	e.optFloat("area_lam2", t.AreaLam2)
	e.optFloat("width_lam", t.WidthLam)
	e.optFloat("height_lam", t.HeightLam)
	e.optFloat("utilization", t.Utilization)
	e.optFloat("delay_s", t.DelayS)
	e.optFloat("energy_j", t.EnergyJ)
	if v := t.VarDelay; v != nil {
		e.key("var_delay")
		e.open('{')
		e.key("samples")
		e.int(v.Samples)
		e.key("mean_s")
		e.float(v.MeanS)
		e.key("sigma_s")
		e.float(v.SigmaS)
		e.key("min_s")
		e.float(v.MinS)
		e.key("max_s")
		e.float(v.MaxS)
		e.close('}')
	}
	if s := t.STA; s != nil {
		e.key("sta")
		e.open('{')
		e.key("delay_s")
		e.float(s.DelayS)
		e.key("worst_net")
		e.str(s.WorstNet)
		e.optStrs("critical_path", s.CriticalPath)
		e.key("levels")
		e.int(s.Levels)
		e.key("instances")
		e.int(s.Instances)
		if len(s.InstanceDelay) > 0 {
			e.key("instance_delay")
			e.delays(s.InstanceDelay)
		}
		e.close('}')
	}
	if t.Immunity != nil {
		e.key("immunity")
		e.immunity(t.Immunity)
	}
	e.optStr("liberty", t.Liberty)
	if len(t.GDS) > 0 {
		e.key("gds")
		e.buf = append(e.buf, '"')
		e.buf = base64.StdEncoding.AppendEncode(e.buf, t.GDS)
		e.buf = append(e.buf, '"')
	}
	e.close('}')
}

func (e *renderer) immunity(im *ImmunityResult) {
	e.open('{')
	e.key("cells_checked")
	e.int(im.CellsChecked)
	e.key("critical_lines")
	e.int(im.CriticalLines)
	e.key("violations")
	e.int(im.Violations)
	e.key("immune")
	e.bool(im.Immune)
	e.optStrs("vulnerable_cells", im.VulnerableCells)
	e.optInt("mc_tubes", im.MCTubes)
	e.optFloat("mc_fail_rate", im.MCFailRate)
	if v := im.Variation; v != nil {
		e.key("variation")
		e.open('{')
		e.key("devices")
		e.int(v.Devices)
		e.key("tubes")
		e.int(v.Tubes)
		e.key("mean_break_p")
		e.float(v.MeanBreakP)
		e.key("count_yield")
		e.float(v.CountYield)
		e.key("align_yield")
		e.float(v.AlignYield)
		e.key("functional_yield")
		e.float(v.FunctionalYield)
		e.close('}')
	}
	e.close('}')
}

// delays writes the instance delays as an object in their own order,
// refusing one out of name order: a map never renders a key twice or
// out of order.
func (e *renderer) delays(ds InstanceDelays) {
	if ds == nil {
		e.null()
		return
	}
	e.open('{')
	for i, d := range ds {
		if i > 0 && d.Name <= ds[i-1].Name {
			e.fail(fmt.Errorf("flow: instance delay %q out of name order", d.Name))
		}
		e.mapKey(d.Name)
		e.float(d.DelayS)
	}
	e.close('}')
}
