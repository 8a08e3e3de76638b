// Package euler finds Euler trails through transistor-network multigraphs.
//
// This is the core of the paper's compact misaligned-CNT-immune layout
// technique (Section III): metal contacts are graph nodes, gates are edges,
// and a layout row is obtained by walking an Euler trail, inserting
// redundant metal contacts wherever the trail revisits a net. Networks
// whose multigraph has more than two odd-degree nodes decompose into
// several trails (each becoming a row segment separated by an etched cut).
package euler

import (
	"fmt"
	"sort"

	"cnfetdk/internal/network"
)

// Edge is one transistor in the multigraph.
type Edge struct {
	ID    int
	Label string // controlling input name
	Neg   bool
	Width float64 // unit-width multiple
	U, V  string  // endpoints (net names)
}

// Multigraph is an undirected multigraph over net-name nodes.
type Multigraph struct {
	Edges []Edge
	adj   map[string][]int // node -> incident edge IDs
}

// New returns an empty multigraph.
func New() *Multigraph {
	return &Multigraph{adj: map[string][]int{}}
}

// AddEdge inserts a transistor edge between nets u and v.
func (g *Multigraph) AddEdge(u, v, label string, neg bool, width float64) int {
	id := len(g.Edges)
	g.Edges = append(g.Edges, Edge{ID: id, Label: label, Neg: neg, Width: width, U: u, V: v})
	g.adj[u] = append(g.adj[u], id)
	g.adj[v] = append(g.adj[v], id)
	return id
}

// FromNetwork builds the multigraph of a flattened transistor network.
func FromNetwork(nw *network.Network) *Multigraph {
	g := New()
	for _, d := range nw.Devices {
		g.AddEdge(d.From, d.To, d.Gate, d.Neg, d.Width)
	}
	return g
}

// Degree returns the number of edge endpoints at node n.
func (g *Multigraph) Degree(n string) int { return len(g.adj[n]) }

// Nodes returns all node names, sorted.
func (g *Multigraph) Nodes() []string {
	out := make([]string, 0, len(g.adj))
	for n := range g.adj {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Trail is a walk through the multigraph: Nodes[i] -Edges[i]- Nodes[i+1].
type Trail struct {
	Nodes []string
	Edges []int // edge IDs into the parent multigraph
}

// Len returns the number of edges in the trail.
func (t Trail) Len() int { return len(t.Edges) }

// connectedComponents groups nodes with at least one incident edge.
func (g *Multigraph) components() [][]string {
	seen := map[string]bool{}
	var comps [][]string
	for _, start := range g.Nodes() {
		if seen[start] || g.Degree(start) == 0 {
			continue
		}
		var comp []string
		stack := []string{start}
		seen[start] = true
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, n)
			for _, eid := range g.adj[n] {
				e := g.Edges[eid]
				for _, m := range []string{e.U, e.V} {
					if !seen[m] {
						seen[m] = true
						stack = append(stack, m)
					}
				}
			}
		}
		sort.Strings(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Trails decomposes the multigraph into a minimal set of edge-disjoint
// trails covering every edge. Components with zero or two odd-degree nodes
// produce one trail; a component with 2k odd nodes (k > 1) produces k
// trails (the theoretical minimum, achieved by pairing surplus odd nodes
// with virtual edges, walking one Euler trail, and splitting it at the
// virtual edges). preferStart biases which node begins a trail when there
// is a choice (e.g. "VDD" so supply contacts land at row ends). The walk
// is deterministic: at each node the lowest (label, id) unused edge is
// taken, which tends to keep gate order aligned between the PUN and PDN
// rows of a cell.
func (g *Multigraph) Trails(preferStart string) []Trail {
	var trails []Trail
	for _, comp := range g.components() {
		trails = append(trails, g.componentTrails(comp, preferStart)...)
	}
	return trails
}

// walkEdge is an edge of the temporary per-component walk graph. origID is
// the edge ID in the parent multigraph, or -1 for a virtual pairing edge.
type walkEdge struct {
	origID int
	label  string
	u, v   string
}

func (g *Multigraph) componentTrails(comp []string, preferStart string) []Trail {
	inComp := map[string]bool{}
	for _, n := range comp {
		inComp[n] = true
	}
	var edges []walkEdge
	for _, e := range g.Edges {
		if inComp[e.U] {
			edges = append(edges, walkEdge{origID: e.ID, label: e.Label, u: e.U, v: e.V})
		}
	}
	var odd []string
	for _, n := range comp {
		if g.Degree(n)%2 == 1 {
			odd = append(odd, n)
		}
	}
	// Choose the walk's start and (if the trail is open) make sure
	// preferStart is an endpoint when it is odd.
	start := comp[0]
	for _, n := range comp {
		if n == preferStart {
			start = n
		}
	}
	if len(odd) > 0 {
		start = odd[0]
		for i, n := range odd {
			if n == preferStart {
				odd[0], odd[i] = odd[i], odd[0]
				start = n
				break
			}
		}
		// Pair interior odd nodes with virtual edges so exactly two odd
		// nodes remain (odd[0] and odd[len-1]) and an Euler trail exists.
		for i := 1; i+1 < len(odd); i += 2 {
			edges = append(edges, walkEdge{origID: -1, label: "\xff", u: odd[i], v: odd[i+1]})
		}
	}
	nodes, ids := eulerWalk(edges, start)
	// Split the single walk at virtual edges into real trails.
	var trails []Trail
	cur := Trail{Nodes: []string{nodes[0]}}
	for i, id := range ids {
		if id < 0 {
			if cur.Len() > 0 {
				trails = append(trails, cur)
			}
			cur = Trail{Nodes: []string{nodes[i+1]}}
			continue
		}
		cur.Edges = append(cur.Edges, id)
		cur.Nodes = append(cur.Nodes, nodes[i+1])
	}
	if cur.Len() > 0 {
		trails = append(trails, cur)
	}
	return trails
}

// eulerWalk runs stack-based Hierholzer over a graph that is guaranteed to
// possess an Euler trail from start (connected, zero or two odd-degree
// nodes with start odd when two exist). It returns the full node sequence
// and the parallel edge-ID sequence (virtual edges as -1).
func eulerWalk(edges []walkEdge, start string) ([]string, []int) {
	adj := map[string][]int{}
	for i, e := range edges {
		adj[e.u] = append(adj[e.u], i)
		adj[e.v] = append(adj[e.v], i)
	}
	for n := range adj {
		ids := adj[n]
		sort.Slice(ids, func(a, b int) bool {
			ea, eb := edges[ids[a]], edges[ids[b]]
			if ea.label != eb.label {
				return ea.label < eb.label
			}
			return ids[a] < ids[b]
		})
	}
	used := make([]bool, len(edges))
	nextUnused := func(n string) int {
		for _, i := range adj[n] {
			if !used[i] {
				return i
			}
		}
		return -1
	}
	type frame struct {
		node string
		edge int // index into edges taken to reach node; -1 for start
	}
	stack := []frame{{node: start, edge: -1}}
	var revNodes []string
	var revEdges []int
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		i := nextUnused(cur.node)
		if i == -1 {
			stack = stack[:len(stack)-1]
			revNodes = append(revNodes, cur.node)
			if cur.edge >= 0 {
				revEdges = append(revEdges, cur.edge)
			}
			continue
		}
		used[i] = true
		e := edges[i]
		next := e.v
		if cur.node == e.v {
			next = e.u
		}
		stack = append(stack, frame{node: next, edge: i})
	}
	nodes := make([]string, len(revNodes))
	ids := make([]int, len(revEdges))
	for i, n := range revNodes {
		nodes[len(revNodes)-1-i] = n
	}
	for i, e := range revEdges {
		ids[len(revEdges)-1-i] = edges[e].origID
	}
	return nodes, ids
}

// Validate checks that the trails exactly cover the multigraph: every edge
// appears exactly once across all trails and consecutive steps share the
// claimed nodes.
func Validate(g *Multigraph, trails []Trail) error {
	seen := make([]bool, len(g.Edges))
	total := 0
	for ti, t := range trails {
		if len(t.Nodes) != len(t.Edges)+1 {
			return fmt.Errorf("trail %d: %d nodes vs %d edges", ti, len(t.Nodes), len(t.Edges))
		}
		for i, eid := range t.Edges {
			if eid < 0 || eid >= len(g.Edges) {
				return fmt.Errorf("trail %d: bad edge id %d", ti, eid)
			}
			if seen[eid] {
				return fmt.Errorf("trail %d: edge %d used twice", ti, eid)
			}
			seen[eid] = true
			total++
			e := g.Edges[eid]
			a, b := t.Nodes[i], t.Nodes[i+1]
			if !(a == e.U && b == e.V) && !(a == e.V && b == e.U) {
				return fmt.Errorf("trail %d step %d: edge %d does not join %s-%s", ti, i, eid, a, b)
			}
		}
	}
	if total != len(g.Edges) {
		return fmt.Errorf("trails cover %d of %d edges", total, len(g.Edges))
	}
	return nil
}

// MinTrailCount returns the theoretical minimum number of trails needed to
// cover each connected component: max(1, odd/2) summed over components.
func (g *Multigraph) MinTrailCount() int {
	n := 0
	for _, comp := range g.components() {
		odd := 0
		for _, node := range comp {
			if g.Degree(node)%2 == 1 {
				odd++
			}
		}
		if odd == 0 {
			n++
		} else {
			n += odd / 2
		}
	}
	return n
}
