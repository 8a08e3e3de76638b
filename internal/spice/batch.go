package spice

// Batch is a set of solver lanes sharing one symbolic factorization
// plan. Variation ensembles solve many transients, possibly on
// concurrent goroutines, whose circuits are structure-identical — only
// element values differ — so the symbolic work (row matching,
// fill-reducing ordering, fill pattern, stamp slots, the compiled
// update stream) is paid once on a prototype here, and every lane only
// refactorizes numerically.
//
// Each lane is an independent Workspace with its own numeric storage;
// the shared plan is immutable after NewBatch, so different goroutines
// may drive different lanes concurrently (one goroutine per lane — a
// single lane is still not safe for concurrent use). Results from a
// plan-shared lane are byte-identical with an independent solve of the
// same circuit: the plan depends only on the topology, so a lane and a
// standalone workspace factor in exactly the same arithmetic order.
type Batch struct {
	ws []Workspace
}

// NewBatch prepares lanes workspaces for solves of circuits shaped like
// proto: the symbolic plan is computed here and pre-seeded into every
// lane. A lane handed a circuit whose topology differs from the
// prototype's is still correct — the solver verifies the structural
// signature and plans that lane independently.
func NewBatch(lanes int, proto *Circuit) (*Batch, error) {
	pl, err := newPlan(proto, proto.NodeCount()-1, len(proto.VSources))
	if err != nil {
		return nil, err
	}
	b := &Batch{ws: make([]Workspace, lanes)}
	for i := range b.ws {
		b.ws[i].st.pl = pl
	}
	return b, nil
}

// Lane returns lane i's workspace, for use with Circuit.Transient.
func (b *Batch) Lane(i int) *Workspace { return &b.ws[i] }
