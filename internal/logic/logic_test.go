package logic

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasics(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"A", "A"},
		{"A*B", "A*B"},
		{"A&B", "A*B"},
		{"AB", "A*B"},
		{"ABC", "A*B*C"},
		{"A+B", "A+B"},
		{"A|B", "A+B"},
		{"AB+C", "A*B+C"},
		{"(A+B)C", "(A+B)*C"},
		{"!A", "A'"},
		{"A'", "A'"},
		{"(AB+C)'", "(A*B+C)'"},
		{"ABC+D", "A*B*C+D"},
		{"Cin", "Cin"},
		{"a_1*b2", "a_1*b2"},
		{"AB'", "A*B'"},
	}
	for _, c := range cases {
		e, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := e.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

// Every malformed input fails with a *ParseError carrying its offset.
func TestParseErrors(t *testing.T) {
	for _, c := range []struct {
		in     string
		offset int
	}{{"", 0}, {"A+", 2}, {"(A", 2}, {"A)", 1}, {"*A", 0}, {"A @ B", 2}, {"+", 0}} {
		_, err := Parse(c.in)
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Offset != c.offset {
			t.Errorf("Parse(%q) = %v, want a *ParseError at offset %d", c.in, err, c.offset)
		}
	}
}

func TestEval(t *testing.T) {
	e := MustParse("AB+C")
	cases := []struct {
		a, b, c, want bool
	}{
		{false, false, false, false},
		{true, true, false, true},
		{true, false, false, false},
		{false, false, true, true},
	}
	for _, cse := range cases {
		env := map[string]bool{"A": cse.a, "B": cse.b, "C": cse.c}
		if got := e.Eval(env); got != cse.want {
			t.Errorf("AB+C(%v,%v,%v) = %v, want %v", cse.a, cse.b, cse.c, got, cse.want)
		}
	}
}

func TestVars(t *testing.T) {
	e := MustParse("(AB+C)*(B+D)")
	got := e.Vars()
	want := []string{"A", "B", "C", "D"}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
}

func TestDual(t *testing.T) {
	e := MustParse("AB+C")
	d := e.Dual()
	if got := d.String(); got != "(A+B)*C" {
		t.Fatalf("Dual = %q, want (A+B)*C", got)
	}
}

func TestDepthAndLeafCount(t *testing.T) {
	cases := []struct {
		in           string
		depth, count int
	}{
		{"A", 1, 1},
		{"AB", 2, 2},
		{"A+B", 1, 2},
		{"AB+C", 2, 3},
		{"ABC+D", 3, 4},
		{"(A+B)*C", 2, 3},
		{"(A+B)(C+D)", 2, 4},
	}
	for _, c := range cases {
		e := MustParse(c.in)
		if got := e.Depth(); got != c.depth {
			t.Errorf("Depth(%q) = %d, want %d", c.in, got, c.depth)
		}
		if got := e.LeafCount(); got != c.count {
			t.Errorf("LeafCount(%q) = %d, want %d", c.in, got, c.count)
		}
	}
}

func TestTableOf(t *testing.T) {
	e := MustParse("AB")
	tab := TableOf(e, []string{"A", "B"})
	// Row encoding: bit0 = A, bit1 = B. Only row 3 (A=B=1) is true.
	for v := 0; v < 4; v++ {
		want := v == 3
		if tab.Get(v) != want {
			t.Errorf("row %d = %v, want %v", v, tab.Get(v), want)
		}
	}
}

func TestTableOps(t *testing.T) {
	inputs := []string{"A", "B", "C"}
	a := TableOf(MustParse("A"), inputs)
	b := TableOf(MustParse("B"), inputs)
	ab := TableOf(MustParse("AB"), inputs)
	if !a.And(b).Equal(ab) {
		t.Fatal("A∧B != AB")
	}
	if !a.Or(b).Equal(TableOf(MustParse("A+B"), inputs)) {
		t.Fatal("A∨B != A+B")
	}
	if !ab.Implies(a) || !ab.Implies(b) {
		t.Fatal("AB should imply both A and B")
	}
	if a.Implies(ab) {
		t.Fatal("A must not imply AB")
	}
	if !a.Not().Equal(TableOf(MustParse("A'"), inputs)) {
		t.Fatal("¬A != A'")
	}
	if !NewTable(inputs).IsFalse() {
		t.Fatal("fresh table should be false")
	}
	if !NewTable(inputs).Not().IsTrue() {
		t.Fatal("complement of false should be true")
	}
}

func TestTableOfCube(t *testing.T) {
	inputs := []string{"A", "B"}
	c := Cube{Lits: []Literal{{Input: "A"}, {Input: "B", Neg: true}}}
	tab := TableOfCube(c, inputs)
	if !tab.Equal(TableOf(MustParse("A*B'"), inputs)) {
		t.Fatal("cube table mismatch")
	}
	if got := c.String(); got != "A*B'" {
		t.Fatalf("Cube.String = %q", got)
	}
	empty := Cube{}
	if !TableOfCube(empty, inputs).IsTrue() {
		t.Fatal("empty cube should be constant true")
	}
	if empty.String() != "1" {
		t.Fatalf("empty cube string = %q", empty.String())
	}
}

// randExpr builds a random expression over the given variables.
func randExpr(rng *rand.Rand, vars []string, depth int) *Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		v := Var(vars[rng.Intn(len(vars))])
		if rng.Intn(4) == 0 {
			return Not(v)
		}
		return v
	}
	n := 2 + rng.Intn(2)
	kids := make([]*Expr, n)
	for i := range kids {
		kids[i] = randExpr(rng, vars, depth-1)
	}
	if rng.Intn(2) == 0 {
		return And(kids...)
	}
	return Or(kids...)
}

// Property: dual of dual is the identity at the truth-table level.
func TestDualInvolutionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vars := []string{"A", "B", "C", "D"}
	f := func() bool {
		e := randExpr(rng, vars, 3)
		t1 := TableOf(e, vars)
		t2 := TableOf(e.Dual().Dual(), vars)
		return t1.Equal(t2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property (De Morgan): dual(e) evaluated on complemented inputs equals the
// complement of e. This is the identity that makes the PUN (dual network
// with active-low p-gates) conduct exactly when the PDN does not.
func TestDualDeMorganProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vars := []string{"A", "B", "C"}
	f := func() bool {
		e := randExpr(rng, vars, 3)
		d := e.Dual()
		env := map[string]bool{}
		cenv := map[string]bool{}
		for v := 0; v < 8; v++ {
			for k, name := range vars {
				bit := v>>uint(k)&1 == 1
				env[name] = bit
				cenv[name] = !bit
			}
			if d.Eval(cenv) != !e.Eval(env) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: parsing the printed form of an expression preserves the truth
// table.
func TestParseRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vars := []string{"A", "B", "C", "D"}
	f := func() bool {
		e := randExpr(rng, vars, 3)
		p, err := Parse(e.String())
		if err != nil {
			return false
		}
		return TableOf(e, vars).Equal(TableOf(p, vars))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTableWideInputs(t *testing.T) {
	// 7 inputs exercises multi-word tables (128 rows).
	inputs := []string{"A", "B", "C", "D", "E", "F", "G"}
	e := MustParse("A*B*C*D*E*F*G")
	tab := TableOf(e, inputs)
	for v := 0; v < 127; v++ {
		if tab.Get(v) {
			t.Fatalf("row %d is true; only the all-ones row should be", v)
		}
	}
	if !tab.Get(127) {
		t.Fatal("all-ones row should be true")
	}
	if !tab.Not().Not().Equal(tab) {
		t.Fatal("double complement should be identity on multi-word tables")
	}
}

// TestBDDMatchesEval checks BDD evaluation against the tree walk on
// every assignment, for expressions that share subtrees (built once per
// node through the memo), reference a variable outside the order (false,
// as Eval treats an unset one), and exercise every operator; equal
// functions are one node, and Diff names an assignment that tells two
// apart.
func TestBDDMatchesEval(t *testing.T) {
	a, b, c := Var("A"), Var("B"), Var("C")
	x := Or(And(a, Not(b)), And(Not(a), b)) // shared by both outputs
	exprs := []*Expr{
		Or(And(x, Not(c)), And(Not(x), c)),
		And(x, Or(c, Var("Z"))),
		MustParse("(A+B)C'"),
	}
	d := NewBDD(context.Background(), 1<<10)
	env := map[string]Node{"A": d.Var(0), "B": d.Var(1), "C": d.Var(2)}
	memo := map[*Expr]Node{}
	fs := make([]Node, len(exprs))
	for i, e := range exprs {
		fs[i] = d.Of(e, env, memo)
	}
	// f is true under an assignment when f ∧ its minterm is not False.
	eval := func(f Node, vals map[string]bool) bool {
		lits := []*Expr{Var("f")}
		for _, name := range []string{"A", "B", "C"} {
			if vals[name] {
				lits = append(lits, Var(name))
			} else {
				lits = append(lits, Not(Var(name)))
			}
		}
		return d.Of(And(lits...), map[string]Node{"f": f, "A": env["A"], "B": env["B"], "C": env["C"]}, nil) != False
	}
	for v := 0; v < 8; v++ {
		vals := map[string]bool{"A": v&1 == 1, "B": v&2 == 2, "C": v&4 == 4}
		for i, e := range exprs {
			if got := eval(fs[i], vals); got != e.Eval(vals) {
				t.Fatalf("vector %03b expr %d (%s): BDD %v, Eval %v", v, i, e, got, e.Eval(vals))
			}
		}
	}
	// 22 distinct subexpressions: A B C Z, x's five operators, five in
	// the first output, two in the second, six in the parsed third
	// (whose A, B and C are its own nodes).
	if len(memo) != 22 {
		t.Fatalf("memo holds %d subexpressions, want 22: shared nodes must build once", len(memo))
	}
	if dm := d.Of(MustParse("(A'B'+C)'"), env, nil); dm != d.Of(MustParse("(A+B)C'"), env, nil) {
		t.Fatal("De Morgan duals are different nodes")
	}
	if in, _ := d.Diff(fs[2], fs[2], 3); in != nil {
		t.Fatal("Diff of a node with itself names an assignment")
	}
	in, f0 := d.Diff(fs[0], fs[2], 3)
	vals := map[string]bool{"A": in[0], "B": in[1], "C": in[2]}
	if f0 != exprs[0].Eval(vals) || f0 == exprs[2].Eval(vals) {
		t.Fatalf("Diff assignment %v (first value %v) does not tell the functions apart", in, f0)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestBDDFailsTyped: a BDD past its budget, or under a dead context,
// fails with a typed error and stays failed.
func TestBDDFailsTyped(t *testing.T) {
	d := NewBDD(context.Background(), 4)
	env := map[string]Node{"A": d.Var(0), "B": d.Var(1)}
	d.Of(MustParse("AB"), env, nil)
	if err := d.Err(); !errors.Is(err, ErrNodeBudget) || !strings.Contains(err.Error(), "4 nodes") {
		t.Fatalf("err = %v, want ErrNodeBudget of 4 nodes", err)
	}
	if d.Not(env["A"]) != False {
		t.Fatal("a failed BDD went on building")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d = NewBDD(ctx, 1<<20)
	e := MustParse("A+BC")
	for i := 0; i < 1<<16 && d.Err() == nil; i++ { // the context is read every 4096 operations
		d.Of(e, map[string]Node{"A": d.Var(i % 64), "B": d.Var(i % 61), "C": d.Var(i % 59)}, nil)
	}
	if err := d.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
