package mapper

import (
	"fmt"

	"qproc/internal/arch"
	"qproc/internal/circuit"
	"qproc/internal/profile"
)

// Options tunes the router. The zero value is not meaningful; use
// DefaultOptions.
type Options struct {
	// ExtendedSize is the number of look-ahead CX gates in the extended
	// set E of the SABRE heuristic.
	ExtendedSize int
	// ExtendedWeight is the weight W of the extended-set term.
	ExtendedWeight float64
	// DecayDelta is the decay increment applied to the physical qubits
	// of each inserted SWAP, discouraging back-to-back swaps on the same
	// qubits and so encouraging parallelism.
	DecayDelta float64
	// DecayReset is the number of SWAP insertions after which all decay
	// factors reset to 1.
	DecayReset int
	// Iterations is the number of forward-backward refinement rounds run
	// to polish the initial mapping before the final forward pass.
	Iterations int
}

// DefaultOptions returns the SABRE parameters from the ASPLOS'19 paper
// (|E| = 20, W = 0.5, decay 0.001 reset every 5 swaps) with three
// forward-backward refinement rounds.
func DefaultOptions() Options {
	return Options{
		ExtendedSize:   20,
		ExtendedWeight: 0.5,
		DecayDelta:     0.001,
		DecayReset:     5,
		Iterations:     3,
	}
}

// Result is the outcome of mapping one circuit onto one architecture.
type Result struct {
	// Mapped is the physical circuit: it acts on the architecture's
	// physical qubits and every CX respects the coupling graph. SWAPs
	// appear pre-decomposed as 3 CX.
	Mapped *circuit.Circuit
	// Initial and Final give logical→physical mappings before and after
	// execution.
	Initial, Final []int
	// Swaps is the number of SWAPs inserted.
	Swaps int
	// GateCount is Mapped.GateCount(): original executable gates plus
	// 3 per inserted SWAP — the paper's performance metric.
	GateCount int
}

// Map routes the circuit onto the architecture and returns the mapping
// result. The circuit must be decomposed (no SWAP/CCX) and must not have
// more logical qubits than the architecture has physical qubits; the
// architecture's coupling graph must connect all physical qubits that end
// up holding logical qubits (guaranteed for connected graphs).
func Map(c *circuit.Circuit, a *arch.Architecture, opt Options) (*Result, error) {
	for i, g := range c.Gates {
		if g.Kind == circuit.SWAP || g.Kind == circuit.CCX {
			return nil, fmt.Errorf("mapper: gate %d (%v) not decomposed", i, g)
		}
	}
	if c.Qubits > a.NumQubits() {
		return nil, fmt.Errorf("mapper: program needs %d qubits, architecture %q has %d",
			c.Qubits, a.Name, a.NumQubits())
	}
	p, err := profile.New(c)
	if err != nil {
		return nil, fmt.Errorf("mapper: %w", err)
	}
	dm := NewDistances(a)
	if err := checkRoutable(p, dm); err != nil {
		return nil, err
	}

	// Two deterministic initial-mapping candidates: the coupling-driven
	// greedy and the snake walk (perfect for chain-structured programs).
	// Each is polished by SABRE forward-backward refinement; the final
	// routing with the fewest gates wins. Only the final routings build
	// the physical circuit.
	dag, rev := circuit.NewDAG(c), circuit.NewDAG(reversed(c))
	r := newRouter(a, dm, opt, len(c.Gates))
	var best *Result
	for _, seed := range []*Mapping{
		InitialMapping(p, a, dm),
		SnakeMapping(p, a),
	} {
		if !seedRoutable(p, dm, seed) {
			continue // e.g. the snake walk crossed architecture components
		}
		m := seed
		for it := 0; it < opt.Iterations; it++ {
			refined := m.Clone()
			if r.route(dag, refined, nil) == 0 {
				break // already perfect; refinement cannot improve
			}
			r.route(rev, refined, nil)
			m = refined
		}
		initial := append([]int(nil), m.L2P...)
		out := circuit.New(c.Name+"@"+a.Name, a.NumQubits())
		swaps := r.route(dag, m, out)
		res := &Result{
			Mapped:    out,
			Initial:   initial,
			Final:     append([]int(nil), m.L2P...),
			Swaps:     swaps,
			GateCount: out.GateCount(),
		}
		if best == nil || res.GateCount < best.GateCount {
			best = res
		}
	}
	if best == nil {
		return nil, fmt.Errorf("mapper: no routable placement of %q on %q", c.Name, a.Name)
	}
	return best, nil
}

// seedRoutable reports whether every logically coupled pair is mutually
// reachable under the seed mapping.
func seedRoutable(p *profile.Profile, dm *Distances, m *Mapping) bool {
	for _, e := range p.Edges() {
		if dm.Between(m.L2P[e.A], m.L2P[e.B]) < 0 {
			return false
		}
	}
	return true
}

// checkRoutable rejects programs whose logical coupling graph spans more
// physical qubits than any connected component of the architecture can
// hold: no placement could ever route them. (A disconnected architecture
// is fine as long as one component fits the whole connected program.)
func checkRoutable(p *profile.Profile, dm *Distances) error {
	if dm.Connected() {
		return nil
	}
	// Size of each physical component.
	compOf := make([]int, dm.N())
	for i := range compOf {
		compOf[i] = -1
	}
	nComp := 0
	for q := 0; q < dm.N(); q++ {
		if compOf[q] >= 0 {
			continue
		}
		for r := 0; r < dm.N(); r++ {
			if dm.Between(q, r) >= 0 {
				compOf[r] = nComp
			}
		}
		nComp++
	}
	sizes := make([]int, nComp)
	for _, c := range compOf {
		sizes[c]++
	}
	largest := 0
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	// Size of the largest connected logical component.
	visited := make([]bool, p.Qubits)
	for q := 0; q < p.Qubits; q++ {
		if visited[q] {
			continue
		}
		stack := []int{q}
		visited[q] = true
		size := 0
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, nb := range p.Neighbors(v) {
				if !visited[nb] {
					visited[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		if size > largest {
			return fmt.Errorf("mapper: program couples %d qubits but the architecture's largest connected component has only %d", size, largest)
		}
	}
	return nil
}

// reversed returns the gates of c in reverse order (structure only; used
// for mapping refinement where gate semantics are irrelevant).
func reversed(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.Name+"-reversed", c.Qubits)
	for i := len(c.Gates) - 1; i >= 0; i-- {
		out.Gates = append(out.Gates, c.Gates[i])
	}
	return out
}

// pair is the logical qubit pair of a CX gate.
type pair struct{ a, b int }

// router is the routing context of one Map call: the inputs its routes
// share, and scratch reused across routes and SWAP decisions so that a
// decision allocates nothing.
type router struct {
	a     *arch.Architecture
	dm    *Distances
	edges []arch.Edge // sorted by (A, B)
	opt   Options
	decay []float64
	exec  []int

	// The per-front inputs of the heuristic, refreshed by lookAhead: the
	// front's CX gates and the extended set E.
	frontCX, extended []pair

	// lookAhead's breadth-first search: seen[g] == epoch marks gate g
	// visited by the current search.
	seen  []uint32
	epoch uint32
	queue []int

	// candidateSwaps marks the physical qubits of the front CX gates in
	// active and clears them again before it returns.
	active []bool
	cands  []arch.Edge
}

// newRouter returns a router for circuits of the given gate count on a.
func newRouter(a *arch.Architecture, dm *Distances, opt Options, gates int) *router {
	return &router{
		a:      a,
		dm:     dm,
		edges:  a.Edges(),
		opt:    opt,
		decay:  make([]float64, a.NumQubits()),
		seen:   make([]uint32, gates),
		active: make([]bool, a.NumQubits()),
	}
}

func (r *router) resetDecay() {
	for i := range r.decay {
		r.decay[i] = 1
	}
}

// route executes the SABRE routing loop over dag from mapping m, mutating m
// into the final mapping, and returns the number of SWAPs inserted. The
// routed physical circuit is appended to out unless out is nil: the
// refinement passes need only the final mapping.
func (r *router) route(dag *circuit.DAG, m *Mapping, out *circuit.Circuit) int {
	c := dag.Circuit()
	dm := r.dm
	front := dag.NewFront()
	r.resetDecay()
	swaps, sinceReset := 0, 0
	// stall counts SWAPs inserted since the last gate execution. If the
	// heuristic oscillates (possible on adversarial inputs), forceProgress
	// routes one blocked gate deterministically along a shortest path,
	// which guarantees termination.
	stall := 0
	maxStall := 4 * (dm.N() + 4)
	// stale is set while frontCX and extended describe an earlier front.
	stale := true

	for !front.Done() {
		// Execute everything executable in the current front.
		exec := r.exec[:0]
		for _, gi := range front.Ready() {
			g := &c.Gates[gi]
			if g.Kind != circuit.CX || dm.Between(m.L2P[g.Qubits[0]], m.L2P[g.Qubits[1]]) == 1 {
				exec = append(exec, gi)
			}
		}
		r.exec = exec
		if len(exec) > 0 {
			if out != nil {
				for _, gi := range exec {
					emit(out, c.Gates[gi], m)
				}
			}
			front.Resolve(exec...)
			stale = true
			r.resetDecay()
			sinceReset = 0
			stall = 0
			continue
		}

		// Blocked: every front gate is a CX on a non-coupled pair.
		if stale {
			r.lookAhead(dag, front.Ready())
			stale = false
		}
		if stall >= maxStall {
			swaps += r.forceProgress(m, r.frontCX[0], out)
			stall = 0
			continue
		}
		cands := r.candidateSwaps(m)
		if len(cands) == 0 {
			// No swap touches a front qubit: disconnected placement.
			// This cannot happen on connected coupling graphs; fail loudly.
			panic(fmt.Sprintf("mapper: no candidate swaps for %q on %q", c.Name, r.a.Name))
		}
		best, bestScore := cands[0], 0.0
		for i, sw := range cands {
			s := r.swapScore(sw, m)
			if i == 0 || s < bestScore {
				best, bestScore = sw, s
			}
		}
		m.Swap(best.A, best.B)
		if out != nil {
			emitSwap(out, best.A, best.B)
		}
		swaps++
		r.decay[best.A] += r.opt.DecayDelta
		r.decay[best.B] += r.opt.DecayDelta
		sinceReset++
		stall++
		if r.opt.DecayReset > 0 && sinceReset >= r.opt.DecayReset {
			r.resetDecay()
			sinceReset = 0
		}
	}
	return swaps
}

// lookAhead refreshes the per-front inputs of the heuristic: the CX gates
// of the front, and the extended set, up to ExtendedSize CX gates reachable
// from the front in the DAG (breadth-first over successors), the
// look-ahead window of SABRE. Both depend only on the front, not on the
// mapping, so route calls this once per blocked front, not once per SWAP.
func (r *router) lookAhead(dag *circuit.DAG, ready []int) {
	c := dag.Circuit()
	r.frontCX = r.frontCX[:0]
	for _, gi := range ready {
		if g := &c.Gates[gi]; g.Kind == circuit.CX {
			r.frontCX = append(r.frontCX, pair{g.Qubits[0], g.Qubits[1]})
		}
	}
	r.extended = r.extended[:0]
	size := r.opt.ExtendedSize
	if size <= 0 {
		return
	}
	r.epoch++
	if r.epoch == 0 {
		clear(r.seen)
		r.epoch = 1
	}
	queue := append(r.queue[:0], ready...)
	for _, gi := range queue {
		r.seen[gi] = r.epoch
	}
	for head := 0; head < len(queue) && len(r.extended) < size; head++ {
		for _, s := range dag.Successors(queue[head]) {
			if r.seen[s] == r.epoch {
				continue
			}
			r.seen[s] = r.epoch
			if g := &c.Gates[s]; g.Kind == circuit.CX {
				r.extended = append(r.extended, pair{g.Qubits[0], g.Qubits[1]})
				if len(r.extended) >= size {
					break
				}
			}
			queue = append(queue, s)
		}
	}
	r.queue = queue
}

// candidateSwaps returns the coupling edges that touch at least one
// physical qubit occupied by a logical qubit of a blocked front CX, in
// (A, B) edge order. The slice is reused by the next call.
func (r *router) candidateSwaps(m *Mapping) []arch.Edge {
	for _, g := range r.frontCX {
		r.active[m.L2P[g.a]] = true
		r.active[m.L2P[g.b]] = true
	}
	cands := r.cands[:0]
	for _, e := range r.edges {
		if r.active[e.A] || r.active[e.B] {
			cands = append(cands, e)
		}
	}
	for _, g := range r.frontCX {
		r.active[m.L2P[g.a]] = false
		r.active[m.L2P[g.b]] = false
	}
	r.cands = cands
	return cands
}

// forceProgress moves the control qubit of gate g along a shortest path
// toward its target until the pair is coupled, emitting the SWAPs to out
// unless it is nil, and returns the number inserted. It is the
// deterministic termination fallback for heuristic oscillation.
func (r *router) forceProgress(m *Mapping, g pair, out *circuit.Circuit) int {
	dm := r.dm
	adj := r.a.AdjList()
	inserted := 0
	for {
		pc, pt := m.L2P[g.a], m.L2P[g.b]
		d := dm.Between(pc, pt)
		if d <= 1 {
			return inserted
		}
		next := -1
		for _, nb := range adj[pc] { // ascending ⇒ deterministic
			if dm.Between(nb, pt) == d-1 {
				next = nb
				break
			}
		}
		if next < 0 {
			panic(fmt.Sprintf("mapper: no shortest-path step from %d to %d", pc, pt))
		}
		m.Swap(pc, next)
		if out != nil {
			emitSwap(out, pc, next)
		}
		inserted++
	}
}

// emit appends gate g rewritten onto physical qubits.
func emit(out *circuit.Circuit, g circuit.Gate, m *Mapping) {
	ng := g
	ng.Qubits = make([]int, len(g.Qubits))
	for i, q := range g.Qubits {
		ng.Qubits[i] = m.L2P[q]
	}
	if g.Params != nil {
		ng.Params = append([]float64(nil), g.Params...)
	}
	out.Append(ng)
}

// emitSwap appends a SWAP on physical qubits p1, p2 as its 3-CX expansion,
// keeping the output in the hardware basis.
func emitSwap(out *circuit.Circuit, p1, p2 int) {
	out.CX(p1, p2).CX(p2, p1).CX(p1, p2)
}

// swapScore evaluates the SABRE heuristic for applying sw to mapping m:
//
//	H = max(decay) · [ (1/|F|)·Σ_F dist' + W·(1/|E|)·Σ_E dist' ]
//
// where dist' is the post-swap coupling distance between the physical
// qubits of each gate's logical pair.
func (r *router) swapScore(sw arch.Edge, m *Mapping) float64 {
	score := meanDistance(sw, m, r.dm, r.frontCX) + r.opt.ExtendedWeight*meanDistance(sw, m, r.dm, r.extended)
	d := r.decay[sw.A]
	if r.decay[sw.B] > d {
		d = r.decay[sw.B]
	}
	return d * score
}

// meanDistance is the mean coupling distance of the pairs once sw is
// applied to m; 0 for no pairs.
func meanDistance(sw arch.Edge, m *Mapping, dm *Distances, pairs []pair) float64 {
	if len(pairs) == 0 {
		return 0
	}
	phys := func(l int) int {
		switch p := m.L2P[l]; p {
		case sw.A:
			return sw.B
		case sw.B:
			return sw.A
		default:
			return p
		}
	}
	t := 0
	for _, g := range pairs {
		t += dm.Between(phys(g.a), phys(g.b))
	}
	return float64(t) / float64(len(pairs))
}
