// Package fault is a seeded, rule-based fault-injection framework.
//
// Production code declares named injection points ("store.put.rename",
// "fabric.lease.stream", "flow.stage.delay", ...) by consulting an
// optional *Injector at the point of the operation the fault would
// break. An Injector compiled from a Plan decides, deterministically,
// whether each call fires a fault and what kind: a typed error, a
// panic, a hang released by context or Close, a delay, or a
// site-interpreted action such as a torn write ("torn") or a
// crash-before-publish ("crash").
//
// Determinism is the whole design: every rule keeps a per-rule call
// counter, and probabilistic rules hash (seed, rule, call#) through a
// splitmix64 finalizer, so the same Plan replayed against the same
// call sequence fires the same faults. A fault schedule is therefore a
// reproducible test input, not a flaky accident.
//
// The disabled path is free: every method is a no-op on a nil
// *Injector, so production code threads a nil pointer and pays one
// predicted branch per injection point — no allocation, no map lookup
// (pinned by TestDisabledZeroAlloc and BenchmarkDisabled).
//
// All injected errors wrap ErrInjected, so layers that must distinguish
// infrastructure faults from request-shaped failures (the sweep
// executor, the chaos harness verdicts) can match with errors.Is.
package fault

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel every injected error wraps; match with
// errors.Is to recognize a deliberately injected fault.
var ErrInjected = errors.New("fault: injected")

// The rule actions. Error, Panic, Hang and Delay are interpreted by
// Decision.Apply; Torn and Crash are interpreted by the site (a torn
// write truncates the payload after Rule.After bytes, a crash abandons
// the operation as if the process died before publishing).
const (
	ActionError = "error"
	ActionPanic = "panic"
	ActionHang  = "hang"
	ActionDelay = "delay"
	ActionTorn  = "torn"
	ActionCrash = "crash"
)

var knownActions = map[string]bool{
	ActionError: true, ActionPanic: true, ActionHang: true,
	ActionDelay: true, ActionTorn: true, ActionCrash: true,
}

// Rule arms one injection point (or a "prefix.*" family of points)
// with a fault. Exactly how often it fires is chosen by the trigger
// fields: Nth fires on the Nth matching call only, Every fires on
// every Every-th call, P fires with seeded probability P per call, and
// a rule with no trigger fires on every call. Count caps total fires.
type Rule struct {
	// Point names the injection point. A trailing "*" matches every
	// point with the prefix (e.g. "store.put.*").
	Point string `json:"point"`

	// Nth fires on exactly the Nth matching call (1-based).
	Nth int `json:"nth,omitempty"`
	// Every fires on every Every-th matching call.
	Every int `json:"every,omitempty"`
	// P fires with probability P per call, drawn deterministically
	// from the plan seed, the rule index and the call counter.
	P float64 `json:"p,omitempty"`
	// Count caps the number of fires (0 = unlimited).
	Count int `json:"count,omitempty"`

	// Action selects the fault kind (default "error").
	Action string `json:"action,omitempty"`
	// After is the byte budget before a torn write or stream cut
	// bites (site-interpreted).
	After int64 `json:"after,omitempty"`
	// DelayMS sleeps this long before acting — "delay d then error"
	// with the default action, a pure latency fault with Action
	// "delay".
	DelayMS int `json:"delay_ms,omitempty"`
	// Error overrides the injected error text.
	Error string `json:"error,omitempty"`
}

// Plan is a serializable fault schedule: a seed plus the armed rules.
type Plan struct {
	// Name labels the schedule in logs and verdicts.
	Name string `json:"name,omitempty"`
	// Seed drives every probabilistic trigger in the plan.
	Seed int64 `json:"seed"`
	// Rules arms the injection points.
	Rules []Rule `json:"rules"`
}

// ParsePlan decodes one JSON fault plan. An unknown field, or anything
// but white space after the plan, is an error.
func ParsePlan(data []byte) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("fault: parsing plan: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Plan{}, errors.New("fault: parsing plan: data after the plan")
	}
	return p, nil
}

// Error is an injected fault error. It wraps ErrInjected always and,
// for hangs released by a context, the context's error too.
type Error struct {
	// Point is the injection point that fired.
	Point string
	// Cause is the context error that released an injected hang, nil
	// otherwise.
	Cause error

	msg string
}

func (e *Error) Error() string { return e.msg }

// Unwrap exposes ErrInjected (and the releasing context error for
// hangs) to errors.Is.
func (e *Error) Unwrap() []error {
	if e.Cause != nil {
		return []error{ErrInjected, e.Cause}
	}
	return []error{ErrInjected}
}

// Event records one fired fault for verdict logs and tests.
type Event struct {
	Point  string `json:"point"`
	Action string `json:"action"`
	Rule   int    `json:"rule"`
	Call   int64  `json:"call"`
}

type compiledRule struct {
	Rule
	index int
	calls atomic.Int64
	fired atomic.Int64
}

// fires reports whether call n (1-based) of this rule triggers.
func (r *compiledRule) fires(seed, n int64) bool {
	switch {
	case r.Nth > 0:
		return n == int64(r.Nth)
	case r.Every > 0:
		return n%int64(r.Every) == 0
	case r.P > 0:
		return chance(seed, r.index, n) < r.P
	default:
		return true
	}
}

// chance maps (seed, rule, call) to a uniform float in [0,1) through a
// splitmix64 finalizer, so probabilistic rules are replayable.
func chance(seed int64, rule int, n int64) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(rule)<<32 + uint64(n)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// Injector decides faults for a compiled Plan. The zero value of the
// pointer — nil — is the disabled injector: every method is a no-op.
type Injector struct {
	seed     int64
	exact    map[string][]*compiledRule
	prefixes []*compiledRule
	done     chan struct{}
	closed   sync.Once

	mu     sync.Mutex
	events []Event
}

// maxEvents bounds the fired-event log.
const maxEvents = 4096

// New compiles a Plan into an Injector, validating every rule.
func New(plan Plan) (*Injector, error) {
	inj := &Injector{
		seed:  plan.Seed,
		exact: make(map[string][]*compiledRule),
		done:  make(chan struct{}),
	}
	for i, r := range plan.Rules {
		if r.Point == "" {
			return nil, fmt.Errorf("fault: rule %d: empty point", i)
		}
		if r.Action == "" {
			r.Action = ActionError
		}
		if !knownActions[r.Action] {
			return nil, fmt.Errorf("fault: rule %d: unknown action %q", i, r.Action)
		}
		if r.P < 0 || r.P > 1 {
			return nil, fmt.Errorf("fault: rule %d: probability %v outside [0,1]", i, r.P)
		}
		if r.Nth < 0 || r.Every < 0 || r.Count < 0 || r.After < 0 || r.DelayMS < 0 {
			return nil, fmt.Errorf("fault: rule %d: negative trigger field", i)
		}
		cr := &compiledRule{Rule: r, index: i}
		if strings.HasSuffix(r.Point, "*") {
			cr.Point = strings.TrimSuffix(r.Point, "*")
			inj.prefixes = append(inj.prefixes, cr)
		} else {
			inj.exact[r.Point] = append(inj.exact[r.Point], cr)
		}
	}
	return inj, nil
}

// MustNew is New for tests and hand-written schedules; it panics on an
// invalid plan.
func MustNew(plan Plan) *Injector {
	inj, err := New(plan)
	if err != nil {
		panic(err)
	}
	return inj
}

// Decision is the outcome of consulting one injection point. The zero
// Decision means "proceed normally"; Fired reports a fault. Sites that
// understand torn writes or crashes branch on Action; everything else
// calls Apply.
type Decision struct {
	// Point is the consulted injection point.
	Point string
	// Action is the fired rule's action ("" when not fired).
	Action string
	// Err is the injected error (nil when not fired). It wraps
	// ErrInjected.
	Err error
	// After is the fired rule's byte budget (torn writes, stream
	// cuts).
	After int64
	// Delay is the fired rule's pre-action sleep.
	Delay time.Duration

	done <-chan struct{}
}

// Fired reports whether the point fired a fault.
func (d Decision) Fired() bool { return d.Err != nil }

// Decide consults an injection point and returns the fired Decision,
// or the zero Decision when no rule fires. Nil injectors never fire.
func (i *Injector) Decide(point string) Decision {
	if i == nil {
		return Decision{}
	}
	if d, ok := i.decide(point, i.exact[point]); ok {
		return d
	}
	for _, r := range i.prefixes {
		if strings.HasPrefix(point, r.Point) {
			if d, ok := i.decide(point, []*compiledRule{r}); ok {
				return d
			}
		}
	}
	return Decision{}
}

func (i *Injector) decide(point string, rules []*compiledRule) (Decision, bool) {
	for _, r := range rules {
		n := r.calls.Add(1)
		if !r.fires(i.seed, n) {
			continue
		}
		if r.Count > 0 && r.fired.Add(1) > int64(r.Count) {
			continue
		}
		i.record(Event{Point: point, Action: r.Action, Rule: r.index, Call: n})
		msg := r.Error
		if msg == "" {
			msg = fmt.Sprintf("fault: injected %s at %s (call %d)", r.Action, point, n)
		}
		return Decision{
			Point:  point,
			Action: r.Action,
			Err:    &Error{Point: point, msg: msg},
			After:  r.After,
			Delay:  time.Duration(r.DelayMS) * time.Millisecond,
			done:   i.done,
		}, true
	}
	return Decision{}, false
}

func (i *Injector) record(ev Event) {
	i.mu.Lock()
	if len(i.events) < maxEvents {
		i.events = append(i.events, ev)
	}
	i.mu.Unlock()
}

// Events returns a copy of the fired-fault log (capped at maxEvents).
func (i *Injector) Events() []Event {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]Event(nil), i.events...)
}

// Close releases every injected hang still blocking. Safe to call
// more than once, and a no-op on nil.
func (i *Injector) Close() {
	if i == nil {
		return
	}
	i.closed.Do(func() { close(i.done) })
}

// Apply interprets the generic actions: delay sleeps, error returns
// the injected error after the rule delay, panic panics, and hang
// blocks until ctx is done or the injector closes. Torn and crash —
// the site-interpreted actions — return the injected error so a site
// that doesn't special-case them still fails loudly instead of
// silently corrupting.
func (d Decision) Apply(ctx context.Context) error {
	if d.Err == nil {
		return nil
	}
	if d.Delay > 0 {
		t := time.NewTimer(d.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return &Error{Point: d.Point, Cause: ctx.Err(),
				msg: fmt.Sprintf("fault: injected delay at %s interrupted: %v", d.Point, ctx.Err())}
		}
	}
	switch d.Action {
	case ActionDelay:
		return nil
	case ActionPanic:
		panic(fmt.Sprintf("fault: injected panic at %s", d.Point))
	case ActionHang:
		select {
		case <-ctx.Done():
			return &Error{Point: d.Point, Cause: ctx.Err(),
				msg: fmt.Sprintf("fault: injected hang at %s released: %v", d.Point, ctx.Err())}
		case <-d.done:
			return d.Err
		}
	default:
		return d.Err
	}
}

// FaultCtx is the one-line injection point: Decide then Apply under
// ctx. It returns nil on the (overwhelmingly common) no-fault path.
func (i *Injector) FaultCtx(ctx context.Context, point string) error {
	if i == nil {
		return nil
	}
	d := i.Decide(point)
	if d.Err == nil {
		return nil
	}
	return d.Apply(ctx)
}

// Fault is FaultCtx without a context: hangs block until Close.
func (i *Injector) Fault(point string) error {
	return i.FaultCtx(context.Background(), point)
}
