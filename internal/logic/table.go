package logic

import (
	"fmt"
	"strings"
)

// MaxTableVars bounds truth-table width; 2^12 rows fit in 64 words.
const MaxTableVars = 12

// Table is a truth table over an ordered list of input names. Bit i of the
// packed words is the function value on the input vector whose bit k is
// (i>>k)&1 for input Inputs[k].
type Table struct {
	Inputs []string
	bits   []uint64
}

// NewTable returns the constant-false table over the given inputs.
func NewTable(inputs []string) *Table {
	if len(inputs) > MaxTableVars {
		panic(fmt.Sprintf("logic: %d inputs exceeds MaxTableVars", len(inputs)))
	}
	words := (1<<len(inputs) + 63) / 64
	if words == 0 {
		words = 1
	}
	return &Table{Inputs: append([]string(nil), inputs...), bits: make([]uint64, words)}
}

// Rows returns the number of rows (2^n).
func (t *Table) Rows() int { return 1 << len(t.Inputs) }

// Get returns the value on row v.
func (t *Table) Get(v int) bool { return t.bits[v/64]>>(uint(v)%64)&1 == 1 }

// Set assigns the value on row v.
func (t *Table) Set(v int, b bool) {
	if b {
		t.bits[v/64] |= 1 << (uint(v) % 64)
	} else {
		t.bits[v/64] &^= 1 << (uint(v) % 64)
	}
}

// mask returns the valid-bit mask for the last word.
func (t *Table) mask(w int) uint64 {
	rows := t.Rows()
	if rows >= (w+1)*64 {
		return ^uint64(0)
	}
	rem := rows - w*64
	if rem <= 0 {
		return 0
	}
	return (1 << uint(rem)) - 1
}

// TableOf evaluates e over the given ordered inputs. Inputs must cover
// e.Vars(); extra inputs are allowed (the function is simply independent of
// them).
func TableOf(e *Expr, inputs []string) *Table {
	t := NewTable(inputs)
	env := make(map[string]bool, len(inputs))
	for v := 0; v < t.Rows(); v++ {
		for k, name := range inputs {
			env[name] = v>>uint(k)&1 == 1
		}
		t.Set(v, e.Eval(env))
	}
	return t
}

// sameInputs panics unless the two tables share an input ordering.
func (t *Table) sameInputs(u *Table) {
	if len(t.Inputs) != len(u.Inputs) {
		panic("logic: table input mismatch")
	}
	for i := range t.Inputs {
		if t.Inputs[i] != u.Inputs[i] {
			panic("logic: table input mismatch")
		}
	}
}

// Not returns the complement table.
func (t *Table) Not() *Table {
	out := NewTable(t.Inputs)
	for w := range t.bits {
		out.bits[w] = ^t.bits[w] & t.mask(w)
	}
	return out
}

// And returns the conjunction of two tables over identical inputs.
func (t *Table) And(u *Table) *Table {
	t.sameInputs(u)
	out := NewTable(t.Inputs)
	for w := range t.bits {
		out.bits[w] = t.bits[w] & u.bits[w]
	}
	return out
}

// Or returns the disjunction of two tables over identical inputs.
func (t *Table) Or(u *Table) *Table {
	t.sameInputs(u)
	out := NewTable(t.Inputs)
	for w := range t.bits {
		out.bits[w] = t.bits[w] | u.bits[w]
	}
	return out
}

// Implies reports whether t ⟹ u holds on every row.
func (t *Table) Implies(u *Table) bool {
	t.sameInputs(u)
	for w := range t.bits {
		if t.bits[w]&^u.bits[w] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether the two tables agree on every row.
func (t *Table) Equal(u *Table) bool {
	t.sameInputs(u)
	for w := range t.bits {
		if t.bits[w] != u.bits[w] {
			return false
		}
	}
	return true
}

// IsFalse reports whether the table is constant false.
func (t *Table) IsFalse() bool {
	for w := range t.bits {
		if t.bits[w] != 0 {
			return false
		}
	}
	return true
}

// IsTrue reports whether the table is constant true.
func (t *Table) IsTrue() bool {
	for w := range t.bits {
		if t.bits[w] != t.mask(w) {
			return false
		}
	}
	return true
}

// Cube is a product term: a set of literals (input name, phase). An empty
// cube is the constant-true product (a wire).
type Cube struct {
	Lits []Literal
}

// Literal is one input with a phase; Neg literals are satisfied by 0.
type Literal struct {
	Input string
	Neg   bool
}

// TableOfCube evaluates the cube over ordered inputs.
func TableOfCube(c Cube, inputs []string) *Table {
	t := NewTable(inputs)
	idx := map[string]int{}
	for k, name := range inputs {
		idx[name] = k
	}
	for v := 0; v < t.Rows(); v++ {
		ok := true
		for _, l := range c.Lits {
			k, found := idx[l.Input]
			if !found {
				panic(fmt.Sprintf("logic: cube literal %q not an input", l.Input))
			}
			bit := v>>uint(k)&1 == 1
			if bit == l.Neg {
				ok = false
				break
			}
		}
		t.Set(v, ok)
	}
	return t
}

// String renders the cube as a product, e.g. "A*B'".
func (c Cube) String() string {
	if len(c.Lits) == 0 {
		return "1"
	}
	parts := make([]string, len(c.Lits))
	for i, l := range c.Lits {
		s := l.Input
		if l.Neg {
			s += "'"
		}
		parts[i] = s
	}
	return strings.Join(parts, "*")
}
