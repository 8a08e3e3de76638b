package fault

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestNilInjectorIsDisabled(t *testing.T) {
	var inj *Injector
	if d := inj.Decide("any.point"); d.Fired() {
		t.Fatal("nil injector fired")
	}
	if err := inj.Fault("any.point"); err != nil {
		t.Fatalf("nil injector Fault: %v", err)
	}
	if err := inj.FaultCtx(context.Background(), "any.point"); err != nil {
		t.Fatalf("nil injector FaultCtx: %v", err)
	}
	if ev := inj.Events(); ev != nil {
		t.Fatalf("nil injector events: %v", ev)
	}
	inj.Close() // must not panic
}

func TestNthRuleFiresOnce(t *testing.T) {
	inj := MustNew(Plan{Rules: []Rule{{Point: "p", Nth: 3}}})
	var fired []int
	for n := 1; n <= 6; n++ {
		if inj.Decide("p").Fired() {
			fired = append(fired, n)
		}
	}
	if !reflect.DeepEqual(fired, []int{3}) {
		t.Fatalf("fired at %v, want [3]", fired)
	}
	ev := inj.Events()
	if len(ev) != 1 || ev[0].Point != "p" || ev[0].Call != 3 {
		t.Fatalf("events = %+v", ev)
	}
}

func TestEveryAndCount(t *testing.T) {
	inj := MustNew(Plan{Rules: []Rule{{Point: "p", Every: 2, Count: 2}}})
	var fired []int
	for n := 1; n <= 10; n++ {
		if inj.Decide("p").Fired() {
			fired = append(fired, n)
		}
	}
	if !reflect.DeepEqual(fired, []int{2, 4}) {
		t.Fatalf("fired at %v, want [2 4]", fired)
	}
}

func TestProbabilisticDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		inj := MustNew(Plan{Seed: seed, Rules: []Rule{{Point: "p", P: 0.3}}})
		var fired []int
		for n := 1; n <= 200; n++ {
			if inj.Decide("p").Fired() {
				fired = append(fired, n)
			}
		}
		return fired
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("p=0.3 fired %d/200 times", len(a))
	}
	c := run(43)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical schedules")
	}
	// Rough frequency sanity: 0.3 ± a wide margin.
	if len(a) < 30 || len(a) > 90 {
		t.Fatalf("p=0.3 fired %d/200 times, far from expectation", len(a))
	}
}

func TestPrefixRule(t *testing.T) {
	inj := MustNew(Plan{Rules: []Rule{{Point: "store.put.*", Nth: 1}}})
	if inj.Decide("store.get.read").Fired() {
		t.Fatal("prefix rule fired outside its prefix")
	}
	if !inj.Decide("store.put.rename").Fired() {
		t.Fatal("prefix rule did not fire on matching point")
	}
	// Nth=1 consumed by the first matching call across the family.
	if inj.Decide("store.put.write").Fired() {
		t.Fatal("Nth=1 prefix rule fired twice")
	}
}

func TestInjectedErrorIsTyped(t *testing.T) {
	inj := MustNew(Plan{Rules: []Rule{{Point: "p", Error: "boom"}}})
	err := inj.Fault("p")
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if err.Error() != "boom" {
		t.Fatalf("err text = %q", err.Error())
	}
}

func TestPanicAction(t *testing.T) {
	inj := MustNew(Plan{Rules: []Rule{{Point: "p", Action: ActionPanic}}})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	_ = inj.Fault("p")
}

func TestHangReleasedByContext(t *testing.T) {
	inj := MustNew(Plan{Rules: []Rule{{Point: "p", Action: ActionHang}}})
	defer inj.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := inj.FaultCtx(ctx, "p")
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("hang returned before context deadline")
	}
	if !errors.Is(err, ErrInjected) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang release err = %v", err)
	}
}

func TestHangReleasedByClose(t *testing.T) {
	inj := MustNew(Plan{Rules: []Rule{{Point: "p", Action: ActionHang}}})
	done := make(chan error, 1)
	go func() { done <- inj.Fault("p") }()
	time.Sleep(5 * time.Millisecond)
	inj.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not release the hang")
	}
}

func TestDelayThenError(t *testing.T) {
	inj := MustNew(Plan{Rules: []Rule{{Point: "p", DelayMS: 15}}})
	start := time.Now()
	err := inj.Fault("p")
	if err == nil || time.Since(start) < 10*time.Millisecond {
		t.Fatalf("want delayed error, got %v after %v", err, time.Since(start))
	}
	// Pure delay: no error.
	inj2 := MustNew(Plan{Rules: []Rule{{Point: "p", Action: ActionDelay, DelayMS: 1}}})
	if err := inj2.Fault("p"); err != nil {
		t.Fatalf("pure delay returned %v", err)
	}
}

func TestPlanValidation(t *testing.T) {
	for _, bad := range []Plan{
		{Rules: []Rule{{Point: ""}}},
		{Rules: []Rule{{Point: "p", Action: "explode"}}},
		{Rules: []Rule{{Point: "p", P: 1.5}}},
		{Rules: []Rule{{Point: "p", Nth: -1}}},
	} {
		if _, err := New(bad); err == nil {
			t.Fatalf("plan %+v validated", bad)
		}
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan([]byte(`{"seed":7,"rules":[{"point":"store.put.write","action":"torn","after":128,"nth":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || len(p.Rules) != 1 || p.Rules[0].Action != ActionTorn || p.Rules[0].After != 128 {
		t.Fatalf("parsed %+v", p)
	}
	if _, err := ParsePlan([]byte(`{"seed":1,"bogus":true}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	// One plan, and only white space after it: a second plan would
	// otherwise be dropped without a word.
	for _, bad := range []string{
		`{"seed":1,"rules":[]} trailing garbage`,
		`{"seed":1,"rules":[]}{"seed":2,"rules":[{"point":"store.put.sync"}]}`,
	} {
		if _, err := ParsePlan([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", bad)
		}
	}
	if _, err := ParsePlan([]byte("{\"seed\":1,\"rules\":[]}\n\t ")); err != nil {
		t.Errorf("trailing white space refused: %v", err)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	catalog := []PointSpec{
		{Point: "store.put.write", Actions: []string{ActionError, ActionTorn}},
		{Point: "fabric.lease.cut", Actions: []string{ActionError}},
		{Point: "flow.stage.delay", Actions: []string{ActionError, ActionPanic, ActionHang}},
	}
	a := Schedule(9, catalog, 6)
	b := Schedule(9, catalog, 6)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed schedules differ:\n%+v\n%+v", a, b)
	}
	if len(a.Rules) != 6 {
		t.Fatalf("got %d rules", len(a.Rules))
	}
	for _, r := range a.Rules {
		if r.Count < 1 {
			t.Fatalf("rule %+v unbounded", r)
		}
		if _, err := New(Plan{Rules: []Rule{r}}); err != nil {
			t.Fatalf("generated invalid rule %+v: %v", r, err)
		}
		if strings.HasSuffix(r.Point, ".cut") && r.After == 0 {
			t.Fatalf("cut rule without byte budget: %+v", r)
		}
	}
	c := Schedule(10, catalog, 6)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestTransportFaults(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(strings.Repeat("x", 1000)))
	}))
	defer srv.Close()

	t.Run("dispatch", func(t *testing.T) {
		inj := MustNew(Plan{Rules: []Rule{{Point: "fabric.lease.dispatch", Nth: 1}}})
		hc := &http.Client{Transport: &Transport{Inj: inj}}
		if _, err := hc.Get(srv.URL); err == nil || !errors.Is(err, ErrInjected) {
			t.Fatalf("dispatch err = %v", err)
		}
		resp, err := hc.Get(srv.URL) // second call passes
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	})

	t.Run("status", func(t *testing.T) {
		inj := MustNew(Plan{Rules: []Rule{{Point: "fabric.lease.status", Nth: 1}}})
		hc := &http.Client{Transport: &Transport{Inj: inj}}
		resp, err := hc.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	})

	t.Run("cut", func(t *testing.T) {
		inj := MustNew(Plan{Rules: []Rule{{Point: "fabric.lease.cut", Nth: 1, After: 100}}})
		hc := &http.Client{Transport: &Transport{Inj: inj}}
		resp, err := hc.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil || !errors.Is(err, ErrInjected) {
			t.Fatalf("read err = %v", err)
		}
		if len(body) > 100 {
			t.Fatalf("read %d bytes past the cut", len(body))
		}
	})

	t.Run("nil injector passthrough", func(t *testing.T) {
		hc := &http.Client{Transport: &Transport{}}
		resp, err := hc.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if b, _ := io.ReadAll(resp.Body); len(b) != 1000 {
			t.Fatalf("read %d bytes", len(b))
		}
	})
}

// TestDisabledZeroAlloc pins the contract that disabled injection is
// free: no allocations on the nil-injector path nor on an enabled
// injector consulted at an unarmed point.
func TestDisabledZeroAlloc(t *testing.T) {
	var nilInj *Injector
	if n := testing.AllocsPerRun(100, func() {
		if nilInj.Decide("store.put.write").Fired() {
			t.Fatal("fired")
		}
	}); n != 0 {
		t.Fatalf("nil injector allocates %v per call", n)
	}
	inj := MustNew(Plan{Rules: []Rule{{Point: "other.point", Nth: 1}}})
	if n := testing.AllocsPerRun(100, func() {
		if inj.Decide("store.put.write").Fired() {
			t.Fatal("fired")
		}
	}); n != 0 {
		t.Fatalf("unarmed point allocates %v per call", n)
	}
}

func TestSettle(t *testing.T) {
	base := Goroutines()
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() { <-stop }()
	}
	if n, ok := Settle(base, 0, 50*time.Millisecond); ok {
		t.Fatalf("settled at %d with 4 goroutines leaked", n)
	}
	close(stop)
	if n, ok := Settle(base, 2, 2*time.Second); !ok {
		t.Fatalf("did not settle: %d goroutines vs base %d", n, base)
	}
}
