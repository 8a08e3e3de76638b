package logic

import (
	"context"
	"errors"
	"fmt"
)

// ErrNodeBudget fails a BDD operation that would pass the node budget.
var ErrNodeBudget = errors.New("logic: BDD node budget exceeded")

// Node is a function in a BDD, an index into its node table: two Nodes
// of one BDD are equal exactly when their functions are.
type Node int32

// The constant functions.
const (
	False Node = 0
	True  Node = 1
)

// BDD is a reduced ordered binary decision diagram, variables tested in
// index order from the root: one node table, an open-addressed unique
// table, and a lossy ITE computed table sized with it. Growing past the
// budget, or the context ending (read every 4096 operations), fails it:
// later operations return False and Err says why. It is not safe for
// concurrent use.
type BDD struct {
	ctx    context.Context
	budget int
	nodes  []bddNode
	unique []Node     // 0 marks an empty slot: terminals are never hashed
	cache  []iteEntry // an entry with f == 0 is empty: ITE never caches f = False
	steps  int
	err    error
}

type bddNode struct {
	v      int32 // variable index; terminal for the constants
	lo, hi Node
}

type iteEntry struct{ f, g, h, r Node }

// terminal sorts after every variable.
const terminal = int32(1<<31 - 1)

// NewBDD returns an empty BDD of at most budget nodes, constants
// included. A node costs 12 bytes, 8 to 16 in the unique table (at most
// half full) and 16 to 32 in the computed table (half its size).
func NewBDD(ctx context.Context, budget int) *BDD {
	return &BDD{ctx: ctx, budget: budget,
		nodes:  []bddNode{{v: terminal}, {v: terminal}},
		unique: make([]Node, 1024), cache: make([]iteEntry, 512)}
}

// Err reports why the BDD failed: a wrapped ErrNodeBudget or the
// context's error; nil while it has not.
func (b *BDD) Err() error { return b.err }

// Var returns the function of variable i.
func (b *BDD) Var(i int) Node { return b.mk(int32(i), False, True) }

// Not returns ¬f.
func (b *BDD) Not(f Node) Node { return b.ite(f, False, True) }

// Of returns the function of e, each variable bound by env (unbound is
// false, as in Eval). A non-nil memo keeps every subexpression's function
// by identity, so shared nodes are built once across calls.
func (b *BDD) Of(e *Expr, env map[string]Node, memo map[*Expr]Node) Node {
	if r, ok := memo[e]; ok {
		return r
	}
	var r Node
	switch e.Op {
	case OpVar:
		r = env[e.Name]
	case OpNot:
		r = b.Not(b.Of(e.Kids[0], env, memo))
	default:
		r = b.Of(e.Kids[0], env, memo)
		for _, k := range e.Kids[1:] {
			if e.Op == OpAnd {
				r = b.ite(r, b.Of(k, env, memo), False)
			} else {
				r = b.ite(r, True, b.Of(k, env, memo))
			}
		}
	}
	if memo != nil {
		memo[e] = r
	}
	return r
}

// Diff returns an assignment of n variables on which f and g differ, and
// f's value there (nil when equal): a path to True of f ⊕ g, walked
// without building it. Below each variable one cofactor pair differs
// (else f and g would be one node); the walk takes the low pair if so.
func (b *BDD) Diff(f, g Node, n int) (in []bool, fval bool) {
	if f == g {
		return nil, false
	}
	in = make([]bool, n)
	for f > True || g > True {
		v := min(b.nodes[f].v, b.nodes[g].v)
		f0, f1 := b.cofactors(f, v)
		g0, g1 := b.cofactors(g, v)
		if f0 != g0 {
			f, g = f0, g0
		} else {
			in[v] = true
			f, g = f1, g1
		}
	}
	return in, f == True
}

// cofactors returns f at v=0 and v=1, v at or above f's top variable.
func (b *BDD) cofactors(f Node, v int32) (Node, Node) {
	if n := b.nodes[f]; n.v == v {
		return n.lo, n.hi
	}
	return f, f
}

// ite returns the function "if f then g else h".
func (b *BDD) ite(f, g, h Node) Node {
	switch {
	case f == True || g == h:
		return g
	case f == False:
		return h
	case g == True && h == False:
		return f
	case b.err != nil:
		return False
	}
	if b.steps++; b.steps&4095 == 0 {
		if err := b.ctx.Err(); err != nil {
			b.err = err
			return False
		}
	}
	if e := b.cache[hash3(f, g, h)&uint32(len(b.cache)-1)]; e.f == f && e.g == g && e.h == h {
		return e.r
	}
	v := min(b.nodes[f].v, b.nodes[g].v, b.nodes[h].v)
	f0, f1 := b.cofactors(f, v)
	g0, g1 := b.cofactors(g, v)
	h0, h1 := b.cofactors(h, v)
	r := b.mk(v, b.ite(f0, g0, h0), b.ite(f1, g1, h1))
	if b.err == nil {
		// The recursion may have grown the tables: index afresh.
		b.cache[hash3(f, g, h)&uint32(len(b.cache)-1)] = iteEntry{f, g, h, r}
	}
	return r
}

// mk returns the node (v, lo, hi), reduced and shared.
func (b *BDD) mk(v int32, lo, hi Node) Node {
	nd := bddNode{v, lo, hi}
	if lo == hi || b.err != nil {
		return lo
	}
	i := b.slot(nd)
	if b.unique[i] != 0 {
		return b.unique[i]
	}
	if len(b.nodes) >= b.budget {
		b.err = fmt.Errorf("%w: %d nodes", ErrNodeBudget, b.budget)
		return False
	}
	n := Node(len(b.nodes))
	b.nodes = append(b.nodes, nd)
	b.unique[i] = n
	if 2*len(b.nodes) > len(b.unique) {
		// Double both tables; the computed table's entries are dropped.
		b.unique = make([]Node, 2*len(b.unique))
		b.cache = make([]iteEntry, len(b.unique)/2)
		for m := 2; m < len(b.nodes); m++ {
			b.unique[b.slot(b.nodes[m])] = Node(m)
		}
	}
	return n
}

// slot returns the unique-table index of nd, or of the empty slot where
// it belongs (linear probing).
func (b *BDD) slot(nd bddNode) uint32 {
	mask := uint32(len(b.unique) - 1)
	i := hash3(Node(nd.v), nd.lo, nd.hi) & mask
	for b.unique[i] != 0 && b.nodes[b.unique[i]] != nd {
		i = (i + 1) & mask
	}
	return i
}

func hash3(a, b, c Node) uint32 {
	h := ((uint32(a)*0x9E3779B1+uint32(b))*0x85EBCA77 + uint32(c)) * 0xC2B2AE3D
	return h ^ h>>16
}
