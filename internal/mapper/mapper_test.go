package mapper

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"qproc/internal/arch"
	"qproc/internal/circuit"
	"qproc/internal/gen"
	"qproc/internal/lattice"
	"qproc/internal/profile"
	"qproc/internal/sim"
)

func TestDistances(t *testing.T) {
	a := arch.NewBaseline(arch.IBM16Q2Bus)
	dm := NewDistances(a)
	if !dm.Connected() {
		t.Fatal("2x8 grid not connected")
	}
	// Corner-to-corner on a 2x8 grid: (0,0)..(7,1) = 8.
	q0, _ := a.QubitAt(lattice.Coord{X: 0, Y: 0})
	q15, _ := a.QubitAt(lattice.Coord{X: 7, Y: 1})
	if d := dm.Between(q0, q15); d != 8 {
		t.Fatalf("corner distance = %d, want 8", d)
	}
	if dm.Between(q0, q0) != 0 {
		t.Fatal("self-distance nonzero")
	}
	// Symmetry.
	for i := 0; i < dm.N(); i++ {
		for j := 0; j < dm.N(); j++ {
			if dm.Between(i, j) != dm.Between(j, i) {
				t.Fatalf("asymmetric distance (%d,%d)", i, j)
			}
		}
	}
}

func TestMapAlreadyNative(t *testing.T) {
	// A chain circuit on a chain architecture must need zero SWAPs.
	coords := make([]lattice.Coord, 6)
	for i := range coords {
		coords[i] = lattice.Coord{X: i, Y: 0}
	}
	a := arch.MustNew("line", coords)
	c := circuit.New("chain", 6)
	for i := 0; i+1 < 6; i++ {
		c.CX(i, i+1)
	}
	res, err := Map(c, a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Swaps != 0 {
		t.Fatalf("native chain needed %d swaps", res.Swaps)
	}
	if res.GateCount != c.GateCount() {
		t.Fatalf("gate count %d != original %d", res.GateCount, c.GateCount())
	}
}

func TestMapRejectsOversizedProgram(t *testing.T) {
	a := arch.MustNew("pair", []lattice.Coord{{X: 0, Y: 0}, {X: 1, Y: 0}})
	c := circuit.New("big", 3)
	c.CX(0, 1)
	if _, err := Map(c, a, DefaultOptions()); err == nil {
		t.Fatal("oversized program accepted")
	}
}

func TestMapRejectsUndecomposed(t *testing.T) {
	a := arch.NewBaseline(arch.IBM16Q2Bus)
	c := circuit.New("raw", 3)
	c.CCX(0, 1, 2)
	if _, err := Map(c, a, DefaultOptions()); err == nil {
		t.Fatal("CCX accepted")
	}
}

// TestMappedRespectsCoupling: every CX of the mapped circuit must act on
// a coupled physical pair — the defining postcondition of routing.
func TestMappedRespectsCoupling(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := arch.NewBaseline(arch.IBM16Q4Bus)
	coupled := map[[2]int]bool{}
	for _, e := range a.Edges() {
		coupled[[2]int{e.A, e.B}] = true
		coupled[[2]int{e.B, e.A}] = true
	}
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(12)
		c := circuit.New("rand", n)
		for g := 0; g < 30+rng.Intn(100); g++ {
			x, y := rng.Intn(n), rng.Intn(n)
			if x == y {
				c.H(x)
			} else {
				c.CX(x, y)
			}
		}
		res, err := Map(c, a, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range res.Mapped.Gates {
			if g.Kind == circuit.CX && !coupled[[2]int{g.Qubits[0], g.Qubits[1]}] {
				t.Fatalf("trial %d: mapped gate %d (%v) on uncoupled pair", trial, i, g)
			}
		}
		if res.GateCount != c.GateCount()+3*res.Swaps {
			t.Fatalf("trial %d: gate count %d != %d + 3*%d", trial, res.GateCount, c.GateCount(), res.Swaps)
		}
	}
}

// TestMapPreservesSemanticsClassical verifies functional equivalence of
// routing on classical (X/CX) circuits: simulating the original on
// logical inputs and the mapped circuit on physically permuted inputs
// must agree through the final mapping.
func TestMapPreservesSemanticsClassical(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := arch.NewBaseline(arch.IBM16Q2Bus)
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(10)
		c := circuit.New("cls", n)
		for g := 0; g < 20+rng.Intn(80); g++ {
			x, y := rng.Intn(n), rng.Intn(n)
			if x == y || rng.Intn(4) == 0 {
				c.X(x)
			} else {
				c.CX(x, y)
			}
		}
		res, err := Map(c, a, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 5; rep++ {
			in := make(sim.Bits, n)
			for i := range in {
				in[i] = rng.Intn(2) == 1
			}
			want, err := sim.Classical(c, in)
			if err != nil {
				t.Fatal(err)
			}
			phys := make(sim.Bits, a.NumQubits())
			for l, p := range res.Initial {
				phys[p] = in[l]
			}
			got, err := sim.Classical(res.Mapped, phys)
			if err != nil {
				t.Fatal(err)
			}
			for l, p := range res.Final {
				if got[p] != want[l] {
					t.Fatalf("trial %d rep %d: logical %d mismatch", trial, rep, l)
				}
			}
		}
	}
}

// TestMapPreservesSemanticsQuantum verifies unitary equivalence on a
// small non-classical circuit via the state-vector simulator: the mapped
// state, with physical qubits permuted back through the final mapping,
// must match the logical state (ancilla physical qubits stay |0⟩).
func TestMapPreservesSemanticsQuantum(t *testing.T) {
	coords := lattice.Grid(2, 3)
	a := arch.MustNew("2x3", coords)
	c := circuit.New("q", 6)
	c.H(0).CX(0, 3).T(3).CX(3, 5).H(5).CX(5, 1).CX(1, 4).T(4).CX(4, 2).CX(2, 0)
	res, err := Map(c, a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.RunCircuit(res.Mapped)
	if err != nil {
		t.Fatal(err)
	}
	// Permute physical state back to logical order: physical qubit
	// res.Final[l] holds logical l.
	perm := make([]int, a.NumQubits())
	used := make([]bool, a.NumQubits())
	for l, p := range res.Final {
		perm[p] = l
		used[p] = true
	}
	next := len(res.Final)
	for p := range perm {
		if !used[p] {
			perm[p] = next
			next++
		}
	}
	back := got.PermuteQubits(perm)
	if !back.EqualUpToPhase(want, 1e-9) {
		t.Fatalf("mapped circuit diverges (fidelity %g)", back.FidelityTo(want))
	}
}

func TestDeterministicMapping(t *testing.T) {
	a := arch.NewBaseline(arch.IBM20Q4Bus)
	c := circuit.New("det", 10)
	rng := rand.New(rand.NewSource(55))
	for g := 0; g < 120; g++ {
		x, y := rng.Intn(10), rng.Intn(10)
		if x != y {
			c.CX(x, y)
		}
	}
	r1, err := Map(c, a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Map(c, a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r1.GateCount != r2.GateCount || r1.Swaps != r2.Swaps {
		t.Fatalf("mapping not deterministic: %d/%d vs %d/%d",
			r1.GateCount, r1.Swaps, r2.GateCount, r2.Swaps)
	}
}

func TestSnakeMappingPerfectForChains(t *testing.T) {
	// The snake candidate must give a zero-swap mapping for chain
	// programs on every IBM baseline (§5.3.1's ising special case).
	c := circuit.New("chain", 16)
	for rep := 0; rep < 3; rep++ {
		for i := 0; i+1 < 16; i++ {
			c.CX(i, i+1)
		}
	}
	for _, b := range arch.Baselines() {
		a := arch.NewBaseline(b)
		res, err := Map(c, a, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.Swaps != 0 {
			t.Errorf("%v: chain program needed %d swaps", b, res.Swaps)
		}
	}
}

func TestMappingBijective(t *testing.T) {
	a := arch.NewBaseline(arch.IBM20Q2Bus)
	c := circuit.New("bij", 12)
	rng := rand.New(rand.NewSource(77))
	for g := 0; g < 100; g++ {
		x, y := rng.Intn(12), rng.Intn(12)
		if x != y {
			c.CX(x, y)
		}
	}
	res, err := Map(c, a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, l2p := range [][]int{res.Initial, res.Final} {
		seen := map[int]bool{}
		for l, p := range l2p {
			if p < 0 || p >= a.NumQubits() {
				t.Fatalf("logical %d on invalid physical %d", l, p)
			}
			if seen[p] {
				t.Fatalf("physical %d used twice", p)
			}
			seen[p] = true
		}
	}
}

func TestMeasurementsFollowQubit(t *testing.T) {
	// Measurements map onto the physical qubit holding the logical qubit
	// at measurement time.
	coords := lattice.Grid(1, 4)
	a := arch.MustNew("line4", coords)
	c := circuit.New("m", 4)
	c.CX(0, 3) // forces routing on a line
	c.MeasureAll()
	res, err := Map(c, a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nMeasure := 0
	for _, g := range res.Mapped.Gates {
		if g.Kind == circuit.Measure {
			nMeasure++
		}
	}
	if nMeasure != 4 {
		t.Fatalf("mapped circuit has %d measurements, want 4", nMeasure)
	}
}

// TestLookAheadStampWrap routes once with fresh look-ahead scratch and once
// with its stamp epoch about to wrap and every gate stamped with the epoch
// that follows the wrap: the wrap must clear the stamps, so both routes
// emit the same circuit.
func TestLookAheadStampWrap(t *testing.T) {
	bench, err := gen.Get("rd84_142")
	if err != nil {
		t.Fatal(err)
	}
	c := bench.Build()
	a := arch.NewBaseline(arch.IBM16Q2Bus)
	p, err := profile.New(c)
	if err != nil {
		t.Fatal(err)
	}
	dm := NewDistances(a)
	seed := InitialMapping(p, a, dm)
	dag := circuit.NewDAG(c)
	run := func(r *router) (*Mapping, *circuit.Circuit, int) {
		m := seed.Clone()
		out := circuit.New(c.Name, a.NumQubits())
		return m, out, r.route(dag, m, out)
	}
	m1, out1, swaps1 := run(newRouter(a, dm, DefaultOptions(), len(c.Gates)))
	wrapping := newRouter(a, dm, DefaultOptions(), len(c.Gates))
	wrapping.epoch = math.MaxUint32
	for i := range wrapping.seen {
		wrapping.seen[i] = 1
	}
	m2, out2, swaps2 := run(wrapping)
	if swaps1 == 0 || swaps1 != swaps2 || !slices.Equal(m1.L2P, m2.L2P) || !reflect.DeepEqual(out1.Gates, out2.Gates) {
		t.Fatalf("routes differ across the stamp wrap: %d vs %d swaps", swaps1, swaps2)
	}
}
