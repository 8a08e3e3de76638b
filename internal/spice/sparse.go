package spice

import (
	"fmt"
	"sort"
)

// The linear solver. MNA matrices of gate-level circuits hold a few
// nonzeros per row, so every solve — a 6-unknown cell arc testbench
// as much as mult4's 294-unknown delay testbench — runs one sparse LU
// whose work is split the way direct solvers like KLU split it:
//
//   - a plan (the symbolic half) is computed once per circuit topology:
//     a row permutation that makes the diagonal structurally nonzero, a
//     fill-reducing minimum-degree column ordering, the fill-in pattern
//     of the LU factors, the value slot of every stamp, and the whole
//     numeric factorization compiled into a flat update stream;
//   - the numeric half replays that stream into preallocated factor
//     storage every Newton iteration, allocation-free.
//
// The plan is deliberately structure-only — no value-dependent pivoting
// — so every circuit with the same topology factors in exactly the same
// arithmetic order. That is what makes plan-sharing batches (Batch)
// byte-identical with independent solves, and plans safely shareable
// across goroutines (a plan is immutable once built). The cost is the
// loss of partial pivoting; the row matching plus the diagonal weight
// that conductance stamps and trapezoidal companions give MNA matrices
// keeps the elimination stable in practice (the parity tests pin the
// kernel against a pivoted dense oracle to 1e-9 V), and a zero or NaN
// pivot still fails loudly with the offending node's name.

// plan is the symbolic factorization of one circuit topology: the
// permutations, the factor storage layout, the compiled update stream
// and the per-element stamp tables. A plan is immutable after newPlan
// and safe to share across lanes.
type plan struct {
	dim int // matrix dimension (n node unknowns + m branch currents)
	n   int // node unknowns

	// The factored matrix is C[p,q] = A[rowOf[p], colOf[q]]: rowOf
	// pairs each elimination position with the original equation whose
	// entry lands on the diagonal, colOf is the fill-reducing ordering.
	rowOf  []int32
	colOf  []int32
	invRow []int32 // original row -> elimination position
	invCol []int32 // original column -> elimination position

	// Factor storage. Column j of the combined factor occupies
	// f[fp[j]:fp[j+1]] with rows fi ascending: the strict upper part
	// (U), the pivot at fd[j], then the strict lower part (L, unit
	// diagonal implied). Assembly stamps land in this same storage (the
	// assembled pattern is a subset of the fill pattern), so the factor
	// runs in place on the assembled values. One extra trailing slot,
	// trash, absorbs stamps whose row or column is ground.
	fp, fi, fd []int32
	trash      int32

	// upd is the left-looking factorization compiled to a flat stream:
	// for each column j, for each U entry k of j in ascending order, the
	// f-index in column j of every row of L's column k. factor walks it
	// in lockstep with the L values, so an update is one indexed
	// multiply-subtract with no pattern lookups.
	upd []int32

	// Element tables in matrix rows, with ground mapped to row dim —
	// a trash row of the RHS and a pinned zero of the solution.
	fetRow []int32 // D, G, S per FET
	capRow []int32 // A, B per capacitor
	// fetSlot holds six f-indices per FET — the Norton stamp positions
	// (D,G) (D,D) (D,S) (S,G) (S,D) (S,S), ground-collapsed entries
	// pointing at trash — so the per-iteration stamp is six adds.
	fetSlot []int32

	// sig is the structural signature the plan was built from; matches
	// compares a circuit against it without allocating.
	sig []int32
}

// structSig appends the topology signature of c: every count and every
// element terminal that shapes the matrix pattern (values excluded).
func structSig(sig []int32, c *Circuit, n, m int) []int32 {
	sig = append(sig, int32(n), int32(m),
		int32(len(c.Resistors)), int32(len(c.Capacitors)),
		int32(len(c.VSources)), int32(len(c.FETs)))
	for _, r := range c.Resistors {
		sig = append(sig, int32(r.A), int32(r.B))
	}
	for _, cp := range c.Capacitors {
		sig = append(sig, int32(cp.A), int32(cp.B))
	}
	for _, vs := range c.VSources {
		sig = append(sig, int32(vs.P), int32(vs.N))
	}
	for i := range c.FETs {
		f := &c.FETs[i]
		sig = append(sig, int32(f.D), int32(f.G), int32(f.S))
	}
	return sig
}

// matches reports whether c has exactly the topology the plan was built
// from. It walks the circuit in signature order comparing element by
// element, so reusing a plan across structure-identical circuits (load
// sweeps, Monte Carlo lanes) costs no allocation.
func (pl *plan) matches(c *Circuit, n, m int) bool {
	sig := pl.sig
	i := 0
	eat := func(v int) bool {
		if i >= len(sig) || sig[i] != int32(v) {
			return false
		}
		i++
		return true
	}
	if !eat(n) || !eat(m) ||
		!eat(len(c.Resistors)) || !eat(len(c.Capacitors)) ||
		!eat(len(c.VSources)) || !eat(len(c.FETs)) {
		return false
	}
	for _, r := range c.Resistors {
		if !eat(r.A) || !eat(r.B) {
			return false
		}
	}
	for _, cp := range c.Capacitors {
		if !eat(cp.A) || !eat(cp.B) {
			return false
		}
	}
	for _, vs := range c.VSources {
		if !eat(vs.P) || !eat(vs.N) {
			return false
		}
	}
	for i := range c.FETs {
		f := &c.FETs[i]
		if !eat(f.D) || !eat(f.G) || !eat(f.S) {
			return false
		}
	}
	return i == len(sig)
}

// newPlan computes the symbolic factorization of c's MNA structure.
func newPlan(c *Circuit, n, m int) (*plan, error) {
	dim := n + m
	pl := &plan{dim: dim, n: n}
	pl.sig = structSig(nil, c, n, m)

	// Structural pattern of the MNA matrix, rows per column. Capacitor
	// entries are included even though DC stamps them as zero: one plan
	// then serves both the operating point and the transient.
	cols := make([][]int32, dim)
	addE := func(r, cc int) {
		if r >= 0 && cc >= 0 {
			cols[cc] = append(cols[cc], int32(r))
		}
	}
	pair := func(a, b int) {
		ia, ib := a-1, b-1
		addE(ia, ia)
		addE(ib, ib)
		if ia >= 0 && ib >= 0 {
			addE(ia, ib)
			addE(ib, ia)
		}
	}
	for _, r := range c.Resistors {
		pair(r.A, r.B)
	}
	for _, cp := range c.Capacitors {
		pair(cp.A, cp.B)
	}
	for vi, vs := range c.VSources {
		row := n + vi
		if ip := vs.P - 1; ip >= 0 {
			addE(ip, row)
			addE(row, ip)
		}
		if in := vs.N - 1; in >= 0 {
			addE(in, row)
			addE(row, in)
		}
	}
	for i := range c.FETs {
		f := &c.FETs[i]
		pair(f.D, 0) // Gmin ties (diagonal only; the other end is ground)
		pair(f.S, 0)
		for _, r := range [2]int{f.D - 1, f.S - 1} {
			for _, cc := range [3]int{f.G - 1, f.D - 1, f.S - 1} {
				addE(r, cc)
			}
		}
	}
	for j := range cols {
		cols[j] = sortDedup32(cols[j])
	}

	// Row matching: pick a distinct equation row for every column so
	// the permuted matrix has a structurally nonzero diagonal. MNA
	// needs this because voltage-source branch equations (and nodes
	// held only by voltage sources) have structurally zero diagonals.
	// Kuhn's augmenting-path matching, seeded with the self-matched
	// diagonal, visits candidates in ascending order — deterministic.
	rowFor := make([]int32, dim) // column -> matched original row
	colFor := make([]int32, dim) // original row -> matched column
	for j := range rowFor {
		rowFor[j], colFor[j] = -1, -1
	}
	for j := 0; j < dim; j++ {
		for _, r := range cols[j] {
			if int(r) == j {
				rowFor[j], colFor[j] = int32(j), int32(j)
				break
			}
		}
	}
	visited := make([]int32, dim)
	epoch := int32(0)
	var augment func(j int) bool
	augment = func(j int) bool {
		for _, r := range cols[j] {
			if visited[r] == epoch {
				continue
			}
			visited[r] = epoch
			if colFor[r] < 0 || augment(int(colFor[r])) {
				rowFor[j], colFor[r] = r, int32(j)
				return true
			}
		}
		return false
	}
	for j := 0; j < dim; j++ {
		if rowFor[j] >= 0 {
			continue
		}
		epoch++
		if !augment(j) {
			return nil, fmt.Errorf("spice: structurally singular system: no equation can pivot for %s", c.unknownName(j))
		}
	}

	// Fill-reducing ordering: greedy minimum degree on the symmetrized
	// pattern of the row-matched matrix, ties broken by lowest index.
	// The elimination-graph update forms the pivot's neighbor clique
	// explicitly; circuit graphs fill modestly, so this stays cheap at
	// the dimensions the repo solves.
	adj := make([]map[int32]struct{}, dim)
	for v := range adj {
		adj[v] = make(map[int32]struct{})
	}
	for j := 0; j < dim; j++ {
		for _, r := range cols[j] {
			i := colFor[r] // row of the matched matrix holding original row r
			if int(i) != j {
				adj[i][int32(j)] = struct{}{}
				adj[int32(j)][i] = struct{}{}
			}
		}
	}
	order := make([]int32, 0, dim)
	eliminated := make([]bool, dim)
	var nbrs []int32
	for len(order) < dim {
		best, bestDeg := -1, dim+1
		for v := 0; v < dim; v++ {
			if !eliminated[v] && len(adj[v]) < bestDeg {
				best, bestDeg = v, len(adj[v])
			}
		}
		v := int32(best)
		eliminated[best] = true
		order = append(order, v)
		nbrs = nbrs[:0]
		for u := range adj[best] {
			nbrs = append(nbrs, u)
		}
		for _, u := range nbrs {
			delete(adj[u], v)
		}
		for x := 0; x < len(nbrs); x++ {
			for y := x + 1; y < len(nbrs); y++ {
				adj[nbrs[x]][nbrs[y]] = struct{}{}
				adj[nbrs[y]][nbrs[x]] = struct{}{}
			}
		}
	}

	pl.colOf = order
	pl.rowOf = make([]int32, dim)
	pl.invCol = make([]int32, dim)
	pl.invRow = make([]int32, dim)
	for p, v := range order {
		pl.rowOf[p] = rowFor[v]
		pl.invCol[v] = int32(p)
		pl.invRow[rowFor[v]] = int32(p)
	}

	// Base symmetric adjacency in elimination coordinates (the
	// min-degree pass above destroyed its working copy).
	posAdj := make([][]int32, dim)
	for j := 0; j < dim; j++ {
		q := pl.invCol[j]
		for _, r := range cols[j] {
			p := pl.invCol[colFor[r]]
			if p != q {
				posAdj[p] = append(posAdj[p], q)
				posAdj[q] = append(posAdj[q], p)
			}
		}
	}
	for p := range posAdj {
		posAdj[p] = sortDedup32(posAdj[p])
	}

	// Symbolic factorization via elimination-tree column merge: the
	// pattern of L's column j is its base neighbors below j plus every
	// child column's pattern (minus j itself); the parent of j is the
	// smallest row of its pattern. This is the standard symbolic
	// Cholesky on the symmetrized pattern — a superset of the true
	// unsymmetric LU fill (George/Ng) and of the assembled pattern, so
	// neither a stamp nor an update can need a slot the plan did not
	// reserve.
	lpat := make([][]int32, dim)
	children := make([][]int32, dim)
	mark := make([]int32, dim)
	for p := range mark {
		mark[p] = -1
	}
	for j := 0; j < dim; j++ {
		var pat []int32
		for _, i := range posAdj[j] {
			if i > int32(j) && mark[i] != int32(j) {
				mark[i] = int32(j)
				pat = append(pat, i)
			}
		}
		for _, ch := range children[j] {
			for _, i := range lpat[ch] {
				if i != int32(j) && mark[i] != int32(j) {
					mark[i] = int32(j)
					pat = append(pat, i)
				}
			}
		}
		sort.Slice(pat, func(a, b int) bool { return pat[a] < pat[b] })
		lpat[j] = pat
		if len(pat) > 0 {
			children[pat[0]] = append(children[pat[0]], int32(j))
		}
	}
	// U's pattern is L's transpose (the base pattern is symmetric):
	// scanning k ascending appends each k to its columns in order, so
	// every U column comes out ascending — the update order the
	// left-looking factorization needs.
	upat := make([][]int32, dim)
	for k := 0; k < dim; k++ {
		for _, i := range lpat[k] {
			upat[i] = append(upat[i], int32(k))
		}
	}

	// Combined column storage: U rows, the pivot, L rows.
	pl.fp = make([]int32, dim+1)
	pl.fd = make([]int32, dim)
	for j := 0; j < dim; j++ {
		pl.fd[j] = pl.fp[j] + int32(len(upat[j]))
		pl.fp[j+1] = pl.fd[j] + 1 + int32(len(lpat[j]))
	}
	pl.fi = make([]int32, 0, pl.fp[dim])
	for j := 0; j < dim; j++ {
		pl.fi = append(pl.fi, upat[j]...)
		pl.fi = append(pl.fi, int32(j))
		pl.fi = append(pl.fi, lpat[j]...)
	}
	pl.trash = pl.fp[dim]

	// Compile the left-looking updates: column j receives, for each U
	// entry k (ascending), L column k scaled by U(k,j). at maps a row to
	// its f-index in the column being compiled; owner guards that the
	// symbolic pattern really holds every destination.
	nUpd := 0
	for j := 0; j < dim; j++ {
		for _, k := range upat[j] {
			nUpd += len(lpat[k])
		}
	}
	pl.upd = make([]int32, 0, nUpd)
	at := make([]int32, dim)
	owner := make([]int32, dim)
	for p := range owner {
		owner[p] = -1
	}
	for j := 0; j < dim; j++ {
		for p := pl.fp[j]; p < pl.fp[j+1]; p++ {
			at[pl.fi[p]], owner[pl.fi[p]] = p, int32(j)
		}
		for _, k := range upat[j] {
			for _, i := range lpat[k] {
				if owner[i] != int32(j) {
					panic(fmt.Sprintf("spice: update of (%d,%d) outside the planned fill pattern", i, j))
				}
				pl.upd = append(pl.upd, at[i])
			}
		}
	}

	// Element tables.
	row := func(node int) int32 {
		if node == 0 {
			return int32(dim)
		}
		return int32(node - 1)
	}
	pl.capRow = make([]int32, 0, 2*len(c.Capacitors))
	for _, cp := range c.Capacitors {
		pl.capRow = append(pl.capRow, row(cp.A), row(cp.B))
	}
	pl.fetRow = make([]int32, 0, 3*len(c.FETs))
	pl.fetSlot = make([]int32, 0, 6*len(c.FETs))
	for i := range c.FETs {
		f := &c.FETs[i]
		pl.fetRow = append(pl.fetRow, row(f.D), row(f.G), row(f.S))
		for _, r := range [2]int{f.D - 1, f.S - 1} {
			for _, cc := range [3]int{f.G - 1, f.D - 1, f.S - 1} {
				pl.fetSlot = append(pl.fetSlot, pl.slotOf(r, cc))
			}
		}
	}
	return pl, nil
}

// sortDedup32 sorts s ascending and removes duplicates in place.
func sortDedup32(s []int32) []int32 {
	if len(s) < 2 {
		return s
	}
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// slotOf maps an original (row, column) matrix entry to its f-index;
// an entry in a ground row or column maps to the trash slot. Stamping a
// position outside the planned pattern is an internal invariant
// violation and panics.
func (pl *plan) slotOf(r, cc int) int32 {
	if r < 0 || cc < 0 {
		return pl.trash
	}
	q := pl.invCol[cc]
	p := pl.invRow[r]
	lo, hi := int(pl.fp[q]), int(pl.fp[q+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pl.fi[mid] < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(pl.fp[q+1]) && pl.fi[lo] == p {
		return int32(lo)
	}
	panic(fmt.Sprintf("spice: stamp at (%d,%d) outside the planned sparsity pattern", r, cc))
}

// factor runs the compiled left-looking LU in place: f holds the
// assembled values over the factor storage and leaves holding the
// strict upper factor, the pivots and the unit-lower factor (scaled by
// the pivots' reciprocals), each column in the order the plan laid it
// out. Replaying the update stream needs no dense work vector, so
// refactorization touches only the factor storage and allocates
// nothing. The return is -1 on success or the elimination position of
// a zero/NaN pivot.
func (pl *plan) factor(f []float64) int {
	upd := pl.upd
	for j := 0; j < pl.dim; j++ {
		d := pl.fd[j]
		for p := pl.fp[j]; p < d; p++ {
			k := pl.fi[p]
			lk := f[pl.fd[k]+1 : pl.fp[k+1]]
			dst := upd[:len(lk)]
			upd = upd[len(lk):]
			// U(k,j) is final here: every earlier update into row k came
			// from a column before k, and later ones only reach rows > k.
			if ukj := f[p]; ukj != 0 {
				for q, lv := range lk {
					f[dst[q]] -= lv * ukj
				}
			}
		}
		piv := f[d]
		if piv == 0 || piv != piv { // zero or NaN
			return j
		}
		inv := 1 / piv
		for p := d + 1; p < pl.fp[j+1]; p++ {
			f[p] *= inv
		}
	}
	return -1
}

// solve overwrites b[:dim] with the solution of the planned system using
// the factors from the latest factor call: it gathers b through the row
// permutation, runs the column-oriented unit-lower and upper triangular
// solves, and scatters the result back through the column ordering. w
// is dim-sized scratch.
func (pl *plan) solve(b, f, w []float64) {
	dim := pl.dim
	for p := 0; p < dim; p++ {
		w[p] = b[pl.rowOf[p]]
	}
	for j := 0; j < dim; j++ {
		zj := w[j]
		if zj != 0 {
			for p := pl.fd[j] + 1; p < pl.fp[j+1]; p++ {
				w[pl.fi[p]] -= f[p] * zj
			}
		}
	}
	for j := dim - 1; j >= 0; j-- {
		d := pl.fd[j]
		xj := w[j] / f[d]
		b[pl.colOf[j]] = xj
		for p := pl.fp[j]; p < d; p++ {
			w[pl.fi[p]] -= f[p] * xj
		}
	}
}

// unknownName names the unknown of matrix column col: a node name for
// the node-voltage block, the source name for branch currents.
func (c *Circuit) unknownName(col int) string {
	n := c.NodeCount() - 1
	if col < n {
		return "node " + c.NodeName(col+1)
	}
	return "source " + c.VSources[col-n].Name
}
