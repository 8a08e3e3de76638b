package synth

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cnfetdk/internal/logic"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/netlist_goldens.txt from the current mapper")

const goldenPath = "testdata/netlist_goldens.txt"

// randomOutputs draws one to three output expressions over the inputs
// A..E: NOT/AND/OR trees up to depth 4, now and then a bare input or a
// repeat of an earlier output, so the mapper's buffer, rename and
// shared-cone paths all run.
func randomOutputs(rng *rand.Rand) map[string]*logic.Expr {
	vars := []string{"A", "B", "C", "D", "E"}
	var gen func(depth int) *logic.Expr
	gen = func(depth int) *logic.Expr {
		if depth == 0 || rng.Intn(4) == 0 {
			return logic.Var(vars[rng.Intn(len(vars))])
		}
		op := rng.Intn(3)
		if op == 0 {
			return logic.Not(gen(depth - 1))
		}
		kids := make([]*logic.Expr, 2+rng.Intn(3))
		for i := range kids {
			kids[i] = gen(depth - 1)
		}
		if op == 1 {
			return logic.And(kids...)
		}
		return logic.Or(kids...)
	}
	names := []string{"Y", "Z", "W"}
	out := map[string]*logic.Expr{}
	var prev *logic.Expr
	for i := 0; i < 1+rng.Intn(3); i++ {
		e := gen(4)
		if prev != nil && rng.Intn(4) == 0 {
			e = prev
		}
		out[names[i]] = e
		prev = e
	}
	return out
}

// goldenNetlists synthesizes the golden cases in a fixed order: the
// registry circuits Synthesize builds, then 300 seeded random designs.
func goldenNetlists(t *testing.T) (names []string, nls []*Netlist) {
	t.Helper()
	add := func(name string, nl *Netlist, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names, nls = append(names, name), append(nls, nl)
	}
	nl, err := Mux2()
	add("mux2", nl, err)
	nl, err = Mux4()
	add("mux4", nl, err)
	nl, err = Decoder2()
	add("dec2", nl, err)
	nl, err = ParityTree(4)
	add("parity4", nl, err)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		name := fmt.Sprintf("random%03d", i)
		nl, err := Synthesize(name, randomOutputs(rng))
		add(name, nl, err)
	}
	return names, nls
}

// TestNetCountMatchesNets: NetCount counts exactly the nets Nets lists,
// on every golden design.
func TestNetCountMatchesNets(t *testing.T) {
	names, nls := goldenNetlists(t)
	for i, nl := range nls {
		if got, want := nl.NetCount(), len(nl.Nets()); got != want {
			t.Errorf("%s: NetCount %d, len(Nets) %d", names[i], got, want)
		}
	}
}

// TestNetlistGoldens pins the mapper's output bytes: stage keys hash the
// request, not the netlist, so a mapper change that renames a net or
// reorders an instance would serve stale cached stages under unchanged
// keys. The goldens are SHA-256 digests of Netlist.Format; regenerate
// them (-update) only in a change meant to move netlist bytes, with a
// cache schema bump.
func TestNetlistGoldens(t *testing.T) {
	names, nls := goldenNetlists(t)
	got := make([]string, len(nls))
	for i, nl := range nls {
		var buf bytes.Buffer
		if err := nl.Format(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[i] = names[i] + " " + hex.EncodeToString(sum[:])
	}
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d goldens, %d netlists", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("netlist bytes moved: got %q, want %q", got[i], want[i])
		}
	}
}

// TestWideOrIsLinear maps a 20,000-term inline OR against a budget of
// four times (at least 1 s) the same inputs' AND takes on this host. The
// AND never looks up an inverter, so it is a linear reference with the
// OR's allocation pattern; the OR maps in about 1.5 times it. A lookup
// that scans the emitted instances makes the OR quadratic: over 10 s on
// a 2-core host, where the AND takes 0.25 s.
func TestWideOrIsLinear(t *testing.T) {
	const terms = 20000
	kids := make([]*logic.Expr, terms)
	for i := range kids {
		kids[i] = logic.Var(fmt.Sprintf("X%d", i))
	}
	t0 := time.Now()
	if _, err := Synthesize("wideand", map[string]*logic.Expr{"Y": logic.And(kids...)}); err != nil {
		t.Fatal(err)
	}
	budget := max(4*time.Since(t0), time.Second)

	done := make(chan error, 1)
	t0 = time.Now()
	go func() {
		nl, err := Synthesize("wideor", map[string]*logic.Expr{"Y": logic.Or(kids...)})
		if err == nil && len(nl.Instances) != 3*(terms-1) {
			err = fmt.Errorf("%d instances, want %d", len(nl.Instances), 3*(terms-1))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d-term OR mapped in %v (budget %v)", terms, time.Since(t0), budget)
	case <-time.After(budget):
		t.Fatalf("%d-term OR still mapping after %v", terms, budget)
	}
}

// TestManyOutputsAreLinear maps 4,000 two-input ANDs (Yi = Ai*Bi)
// against a budget of four times (at least 1 s) what one AND of the same
// 8,000 inputs takes. Both emit about 8,000 instances; the outputs also
// rename each AND's net to its output name. A rename that scans every
// emitted instance and every structural-cache entry makes k outputs
// quadratic: 3.1 s at k = 4,000 on a 2-core host.
func TestManyOutputsAreLinear(t *testing.T) {
	const k = 4000
	outputs := make(map[string]*logic.Expr, k)
	ins := make([]*logic.Expr, 0, 2*k)
	for i := 0; i < k; i++ {
		a, b := logic.Var(fmt.Sprintf("A%d", i)), logic.Var(fmt.Sprintf("B%d", i))
		outputs[fmt.Sprintf("Y%d", i)] = logic.And(a, b)
		ins = append(ins, a, b)
	}
	t0 := time.Now()
	if _, err := Synthesize("wideand", map[string]*logic.Expr{"Y": logic.And(ins...)}); err != nil {
		t.Fatal(err)
	}
	budget := max(4*time.Since(t0), time.Second)

	done := make(chan error, 1)
	var nl *Netlist
	t0 = time.Now()
	go func() {
		var err error
		nl, err = Synthesize("ands", outputs)
		if err == nil && len(nl.Instances) != 2*k {
			err = fmt.Errorf("%d instances, want %d", len(nl.Instances), 2*k)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d outputs mapped in %v (budget %v)", k, time.Since(t0), budget)
	case <-time.After(budget):
		t.Fatalf("%d outputs still mapping after %v", k, budget)
	}
	// Too wide to verify exhaustively or by the sampled check: evaluate
	// a few random vectors instead.
	rng := rand.New(rand.NewSource(1))
	for v := 0; v < 4; v++ {
		env := make(map[string]bool, 2*k)
		for _, in := range nl.Inputs {
			env[in] = rng.Intn(2) == 1
		}
		got, err := nl.Evaluate(env)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if y, want := got[fmt.Sprintf("Y%d", i)], env[fmt.Sprintf("A%d", i)] && env[fmt.Sprintf("B%d", i)]; y != want {
				t.Fatalf("vector %d: Y%d = %v, want %v", v, i, y, want)
			}
		}
	}
}
