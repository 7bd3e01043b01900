package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"qproc/internal/arch"
	"qproc/internal/bus"
	"qproc/internal/circuit"
	"qproc/internal/collision"
	"qproc/internal/core"
	"qproc/internal/experiments"
	"qproc/internal/freq"
	"qproc/internal/gen"
	"qproc/internal/lattice"
	"qproc/internal/mapper"
	"qproc/internal/profile"
	"qproc/internal/yield"
)

// pinnedDigest is pointsDigest of the whole suite at the paper's
// budgets with seed 1: every design's gate count, swaps and yield bits.
const pinnedDigest = "512359be38a48f01"

// pinnedMapDigests holds each benchmark's mapDigest. Mapping never draws
// a random number, only eff-rd-bus topologies depend on the seed, and no
// Monte-Carlo budget changes a topology, so these hold for every seed
// and budget.
var pinnedMapDigests = map[string]string{
	"qft_16":         "134b5a1308570835",
	"adr4_197":       "dcb0ce6f180d4a55",
	"rd84_142":       "4af69528206024a5",
	"misex1_241":     "d3af0a45d6e379aa",
	"square_root_7":  "fd66fd8d7ddb1d05",
	"radd_250":       "77c4c593fa4292ea",
	"cm152a_212":     "c00a00402a57e814",
	"dc1_220":        "ccb78b75f150a61d",
	"z4_268":         "de62a89f1012e355",
	"sym6_145":       "df3524c3b134532c",
	"UCCSD_ansatz_8": "1d5af40613bc8c7d",
	"ising_model_16": "01f49350ce0e87db",
}

// reproducePass is the nominal wall time of one pass at the paper's budgets.
const reproducePass = 18 * time.Second

// reproduceOptions are the paper's budgets on a serial runner.
func reproduceOptions(seed int64) experiments.Options {
	opt := experiments.DefaultOptions()
	opt.Seed = seed
	opt.Workers = 1
	return opt
}

// runReproduce runs the paper reproduction, Runner.RunAll's work, at the
// paper's budgets. Ops are Figure 10 subplots; the one sample per pass
// is the whole suite's CPU time, the one request a user of the
// reproduction makes.
func runReproduce(cfg config, rep *report) error {
	return reproduce(cfg, rep, reproduceOptions(cfg.seed), nil)
}

// reproduce is runReproduce with the options and, for tests, a subset of
// the suite (nil = every benchmark). It calls RunBenchmark on each
// benchmark in turn, which is what RunAll does on a serial runner.
func reproduce(cfg config, rep *report, opt experiments.Options, names []string) error {
	if names == nil {
		names = gen.Names()
	}
	setup := func() (*experiments.Runner, []*circuit.Circuit, error) { return newInputs(opt, names) }
	if err := rep.extraSetups(func() (func(), error) {
		_, _, err := setup()
		return func() {}, err
	}); err != nil {
		return err
	}

	var results []*experiments.BenchmarkResult
	var circuits []*circuit.Circuit
	var runner *experiments.Runner
	for i := passCount(cfg, reproducePass); i > 0; i-- {
		err := rep.setUp(func() (err error) {
			runner, circuits, err = setup()
			return err
		})
		if err != nil {
			return err
		}
		rep.beginPass()
		results = nil
		w := startWatch()
		for _, n := range names {
			var res *experiments.BenchmarkResult
			if res, err = runner.RunBenchmark(n); err != nil {
				return err
			}
			results = append(results, res)
		}
		cpu, wall := w.elapsed()
		rep.pass(cpu, wall)
		rep.sample(cpu)
		for i, res := range results {
			if msg := checkSubplot(circuits[i], res); msg != "" {
				rep.fail("%s: %s", res.Name, msg)
			}
			rep.attempted++
		}
		checkDigests(rep, opt.Seed, results)
	}
	if !cfg.trace {
		return nil
	}
	return traceReproduce(cfg, rep, opt, circuits, results)
}

// newInputs is a workload's set-up: a fresh runner and the named
// benchmark programs in the decomposed basis.
func newInputs(opt experiments.Options, names []string) (*experiments.Runner, []*circuit.Circuit, error) {
	cs := make([]*circuit.Circuit, len(names))
	for i, n := range names {
		b, err := gen.Get(n)
		if err != nil {
			return nil, nil, err
		}
		cs[i] = b.Build()
	}
	return experiments.NewRunner(opt), cs, nil
}

// checkSubplot verifies invariants that hold for any seed: every
// point's gate count is the program's executable gates plus three per
// inserted SWAP, yields are probabilities, and baseline (1) anchors the
// normalised performance.
func checkSubplot(c *circuit.Circuit, res *experiments.BenchmarkResult) string {
	if len(res.Points) == 0 {
		return "no points"
	}
	base := c.GateCount()
	for _, p := range res.Points {
		switch {
		case p.Swaps < 0 || p.GateCount-3*p.Swaps != base:
			return fmt.Sprintf("%s %s: %d gates with %d swaps, want %d + 3·swaps", p.Config, p.Label, p.GateCount, p.Swaps, base)
		case !(p.Yield >= 0 && p.Yield <= 1):
			return fmt.Sprintf("%s %s: yield %v outside [0, 1]", p.Config, p.Label, p.Yield)
		case p.NormPerf != float64(res.Points[0].GateCount)/float64(p.GateCount):
			return fmt.Sprintf("%s %s: norm perf %v not anchored to baseline (1)", p.Config, p.Label, p.NormPerf)
		}
	}
	if res.Points[0].Config != core.ConfigIBM || res.Points[0].Label != "(1)" {
		return "first point is not IBM baseline (1)"
	}
	if res.Qubits != c.Qubits {
		return fmt.Sprintf("%d qubits, program has %d", res.Qubits, c.Qubits)
	}
	return ""
}

// checkDigests compares each subplot's mapping digest with the pinned
// one and, for the whole suite with seed 1 (which runs only at the
// paper's budgets), the points digest.
func checkDigests(rep *report, seed int64, results []*experiments.BenchmarkResult) {
	for _, res := range results {
		if got, want := mapDigest(res), pinnedMapDigests[res.Name]; got != want {
			rep.fail("%s: mapping digest %s, pinned %q", res.Name, got, want)
		}
	}
	if seed == 1 && len(results) == len(gen.Names()) {
		if got := pointsDigest(results); got != pinnedDigest {
			rep.fail("points digest %s, pinned %s", got, pinnedDigest)
		}
	}
}

// pointsDigest hashes every point's identity, gate count, swaps and
// yield bits.
func pointsDigest(results []*experiments.BenchmarkResult) string {
	h := sha256.New()
	for _, res := range results {
		for _, p := range res.Points {
			fmt.Fprintf(h, "%s|%s|%s|%d|%d|%d|%x\n", p.Benchmark, p.Config, p.Label, p.Qubits, p.GateCount, p.Swaps, math.Float64bits(p.Yield))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// mapDigest hashes gate count and swaps of every design of one subplot
// whose topology does not depend on the seed (all but eff-rd-bus).
func mapDigest(res *experiments.BenchmarkResult) string {
	h := sha256.New()
	for _, p := range res.Points {
		if p.Config != core.ConfigEffRdBus {
			fmt.Fprintf(h, "%s|%s|%d|%d\n", p.Config, p.Label, p.GateCount, p.Swaps)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// seriesConfigs are the generated configurations in RunCircuit's order.
var seriesConfigs = []core.Config{core.ConfigEffFull, core.ConfigEffRdBus, core.ConfigEff5Freq, core.ConfigEffLayoutOnly}

// traceReproduce is the traced part of a --trace 1 run. It recomposes
// RunCircuit from the public calls it makes, with a span around each,
// and checks the recomposed points against the untraced pass's bit
// for bit; splits core into layout, bus and freq by recomposing each
// series from its parts; and replays the results through the storage
// layers.
func traceReproduce(cfg config, rep *report, opt experiments.Options, circuits []*circuit.Circuit, want []*experiments.BenchmarkResult) error {
	untraced := rep.passWalls[0]
	tr := newTracer()
	mc := newMapCounter()
	noise, kernels := yield.NewNoiseCache(), collision.NewKernelCache()
	root := tr.begin("bench")
	designs := make([][][]*core.Design, len(circuits))
	var yieldCalls int
	for i, c := range circuits {
		var got *experiments.BenchmarkResult
		var err error
		got, designs[i], err = recompose(tr, opt, c, mc, noise, kernels, &yieldCalls)
		if err != nil {
			return err
		}
		if msg := samePoints(want[i], got); msg != "" {
			rep.fail("%s: traced recomposition differs from the untraced pass: %s", c.Name, msg)
		}
	}
	tr.end(root)
	wall := tr.duration(root)
	self := tr.selfTimes(root)

	split, err := splitCore(tr, opt, circuits, designs)
	if err != nil {
		return err
	}
	if split.mismatch != "" {
		rep.notef("core split skipped where the recomposed series differ: %s", split.mismatch)
	}

	payloads := make([][]byte, 0, len(want))
	for _, res := range want {
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		payloads = append(payloads, data)
	}
	if err := replayStorage(cfg, rep, "reproduce", payloads); err != nil {
		return err
	}

	nh, nm := noise.Stats()
	kh, km := kernels.Stats()
	rep.layerMs("core.busy_ms", self["core"])
	rep.layerMs("layout.busy_ms", split.layout)
	rep.layerMs("bus.busy_ms", split.bus)
	rep.layerMs("freq.busy_ms", split.freq)
	rep.layerMs("mapper.busy_ms", self["mapper"])
	mc.report(rep)
	rep.layerMs("yield.busy_ms", self["yield"])
	rep.layer("yield.calls", float64(yieldCalls))
	rep.layer("yield.noise_hits", float64(nh))
	rep.layer("yield.noise_misses", float64(nm))
	rep.layer("collision.kernel_hits", float64(kh))
	rep.layer("collision.kernel_misses", float64(km))
	rep.layerMs("bench.busy_ms", self["bench"])
	finishTrace(rep, self, wall, wall.Seconds()/untraced.Seconds())
	rep.notef("untraced pass %.2fs, traced recomposition %.2fs; %d Map calls on %d distinct inputs",
		untraced.Seconds(), wall.Seconds(), mc.calls, len(mc.seen))
	return tr.write(cfg, "reproduce")
}

// mapCounter counts mapper.Map calls, their distinct (circuit, coupling
// graph) inputs — the bound on what a memo could reuse — and the swaps
// they insert.
type mapCounter struct {
	calls, swaps int
	seen         map[string]bool
}

func newMapCounter() *mapCounter { return &mapCounter{seen: map[string]bool{}} }

func (m *mapCounter) report(rep *report) {
	rep.layer("mapper.calls", float64(m.calls))
	rep.layer("mapper.distinct_inputs", float64(len(m.seen)))
	rep.layer("mapper.swaps", float64(m.swaps))
}

// mapTraced is mapper.Map inside a "mapper" span, counted.
func (m *mapCounter) mapTraced(tr *tracer, c *circuit.Circuit, a *arch.Architecture, opt mapper.Options) (*mapper.Result, error) {
	id := tr.begin("mapper")
	res, err := mapper.Map(c, a, opt)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	m.calls++
	m.swaps += res.Swaps
	m.seen[c.Name+"/"+collision.TopoKey(a.AdjList())] = true
	return res, nil
}

// recompose evaluates c the way Runner.RunCircuit does, through the
// same public calls, with a span around each call into a layer. It
// returns the subplot and the designs of each series configuration.
func recompose(tr *tracer, opt experiments.Options, c *circuit.Circuit, mc *mapCounter,
	noise *yield.NoiseCache, kernels *collision.KernelCache, yieldCalls *int) (*experiments.BenchmarkResult, [][]*core.Design, error) {
	flow := core.NewFlow(opt.Seed)
	flow.FreqLocalTrials = opt.FreqLocalTrials
	sim := yield.New(opt.Seed + 7919) // the runner's simulator seed
	sim.Trials = opt.YieldTrials
	sim.Cache = noise
	sim.Kernels = kernels
	sim.Parallel = opt.Parallel
	sim.Workers = opt.Workers

	var jobs []*core.Design
	var labels []string
	tr.do("core", func() {
		for i, d := range flow.Baselines(c) {
			jobs = append(jobs, d)
			labels = append(labels, fmt.Sprintf("(%d)", i+1))
		}
	})
	if len(jobs) == 0 {
		return nil, nil, fmt.Errorf("%s fits no baseline", c.Name)
	}
	series := make([][]*core.Design, len(seriesConfigs))
	for i, cfg := range seriesConfigs {
		var err error
		tr.do("core", func() {
			series[i], err = flow.SeriesConfig(c, cfg, opt.MaxBuses, 0, opt.RandomBusSamples)
		})
		if err != nil {
			return nil, nil, err
		}
		for _, d := range series[i] {
			jobs = append(jobs, d)
			labels = append(labels, fmt.Sprintf("k=%d", d.Buses))
		}
	}

	res := &experiments.BenchmarkResult{Name: c.Name, Qubits: c.Qubits}
	for i, d := range jobs {
		m, err := mc.mapTraced(tr, c, d.Arch, opt.Mapper)
		if err != nil {
			return nil, nil, err
		}
		var y float64
		tr.do("yield", func() {
			var est yield.Estimator
			if est, err = yield.NewEstimator(opt.Estimator, sim); err == nil {
				adj := d.Arch.AdjList()
				y = est.Estimate(collision.TopoKey(adj), adj, d.Arch.Freqs)
			}
		})
		if err != nil {
			return nil, nil, err
		}
		*yieldCalls++
		res.Points = append(res.Points, experiments.Point{
			Benchmark: c.Name, Config: d.Config, Label: labels[i],
			Qubits: d.Arch.NumQubits(), Connections: d.Arch.NumConnections(), Buses: d.Buses,
			GateCount: m.GateCount, Swaps: m.Swaps, Yield: y,
		})
	}
	for i := range res.Points {
		res.Points[i].NormPerf = float64(res.Points[0].GateCount) / float64(res.Points[i].GateCount)
	}
	return res, series, nil
}

// samePoints compares two subplots field by field, floats by their bits.
func samePoints(a, b *experiments.BenchmarkResult) string {
	if a.Name != b.Name || a.Qubits != b.Qubits || len(a.Points) != len(b.Points) {
		return fmt.Sprintf("shape %s/%d/%d vs %s/%d/%d", a.Name, a.Qubits, len(a.Points), b.Name, b.Qubits, len(b.Points))
	}
	for i, p := range a.Points {
		q := b.Points[i]
		yp, yq, np, nq := p.Yield, q.Yield, p.NormPerf, q.NormPerf
		p.Yield, q.Yield, p.NormPerf, q.NormPerf = 0, 0, 0, 0
		if p != q || math.Float64bits(yp) != math.Float64bits(yq) || math.Float64bits(np) != math.Float64bits(nq) {
			return fmt.Sprintf("point %d: %+v yield %v vs %+v yield %v", i, p, yp, q, yq)
		}
	}
	return ""
}

// coreSplit is core's time divided among its three subroutines.
type coreSplit struct {
	layout, bus, freq time.Duration
	// mismatch names the first series whose recomposition differed from
	// SeriesConfig's designs; those series add no time to the split.
	mismatch string
}

// splitCore recomposes every generated series from Flow.BaseLayout (or
// Profile + Layout), bus.Select / bus.SelectRandom and
// freq.Allocator.Assign (or the 5-frequency scheme), timing each
// subroutine, and keeps the timings of each series whose designs equal
// the ones SeriesConfig returned.
func splitCore(tr *tracer, opt experiments.Options, circuits []*circuit.Circuit, designs [][][]*core.Design) (coreSplit, error) {
	var split coreSplit
	root := tr.begin("split")
	defer tr.end(root)
	for i, c := range circuits {
		for j, cfg := range seriesConfigs {
			var s coreSplit
			got, err := splitSeries(&s, opt, c, cfg)
			if err != nil {
				return split, err
			}
			if msg := sameDesigns(designs[i][j], got); msg != "" {
				if split.mismatch == "" {
					split.mismatch = fmt.Sprintf("%s/%s: %s", c.Name, cfg, msg)
				}
				continue
			}
			split.layout += s.layout
			split.bus += s.bus
			split.freq += s.freq
		}
	}
	return split, nil
}

// splitSeries rebuilds one configuration's series the way core.Flow
// does, adding each subroutine's time to s.
func splitSeries(s *coreSplit, opt experiments.Options, c *circuit.Circuit, cfg core.Config) ([]*core.Design, error) {
	flow := core.NewFlow(opt.Seed)
	flow.FreqLocalTrials = opt.FreqLocalTrials
	timed := func(d *time.Duration, fn func()) {
		t0 := time.Now()
		fn()
		*d += time.Since(t0)
	}
	var base *arch.Architecture
	var p *profile.Profile
	var err error
	timed(&s.layout, func() {
		if cfg == core.ConfigEffFull || cfg == core.ConfigEff5Freq {
			base, p, err = flow.BaseLayout(c, 0)
			return
		}
		if p, err = flow.Profile(c); err == nil {
			base, err = flow.Layout(p, "")
		}
	})
	if err != nil {
		return nil, err
	}
	finish := func(squares []lattice.Square) (*core.Design, error) {
		var a *arch.Architecture
		var err error
		timed(&s.bus, func() {
			a = base.Clone()
			for _, sq := range squares {
				if err = a.ApplyMultiBus(sq); err != nil {
					return
				}
			}
		})
		if err != nil {
			return nil, err
		}
		a.Name = fmt.Sprintf("%s/%s-%dbus", c.Name, cfg, len(squares))
		timed(&s.freq, func() {
			if cfg == core.ConfigEff5Freq {
				err = a.SetFrequencies(arch.FiveFreqScheme(a))
				return
			}
			al := freq.NewAllocator(opt.Seed)
			al.LocalTrials = opt.FreqLocalTrials
			err = al.Assign(a)
		})
		if err == nil {
			err = a.Validate()
		}
		return &core.Design{Arch: a, Buses: len(squares), Squares: squares, Config: cfg}, err
	}

	var out []*core.Design
	switch cfg {
	case core.ConfigEffFull, core.ConfigEff5Freq:
		var selected []lattice.Square
		timed(&s.bus, func() { selected, err = bus.Select(base.Clone(), p, opt.MaxBuses) })
		if err != nil {
			return nil, err
		}
		for k := 0; k <= len(selected); k++ {
			d, err := finish(selected[:k])
			if err != nil {
				return nil, err
			}
			out = append(out, d)
		}
	case core.ConfigEffRdBus:
		var limit int
		timed(&s.bus, func() { limit = bus.MaxPossible(base) })
		if opt.MaxBuses >= 0 && opt.MaxBuses < limit {
			limit = opt.MaxBuses
		}
		for smp := 0; smp < opt.RandomBusSamples; smp++ {
			for k := 1; k <= limit; k++ {
				var sel []lattice.Square
				timed(&s.bus, func() { sel = bus.SelectRandom(base.Clone(), k, opt.Seed+int64(1000*smp+k)) })
				d, err := finish(sel)
				if err != nil {
					return nil, err
				}
				out = append(out, d)
			}
		}
	case core.ConfigEffLayoutOnly:
		for _, maximal := range []bool{false, true} {
			var a *arch.Architecture
			nb := 0
			timed(&s.bus, func() {
				a = base.Clone()
				if maximal {
					nb = a.MaxMultiBuses()
				}
			})
			a.Name = fmt.Sprintf("%s/%s-%dbus", c.Name, cfg, nb)
			timed(&s.freq, func() { err = a.SetFrequencies(arch.FiveFreqScheme(a)) })
			if err != nil {
				return nil, err
			}
			out = append(out, &core.Design{Arch: a, Buses: nb, Squares: a.MultiBusSquares(), Config: cfg})
		}
	}
	return out, nil
}

// sameDesigns compares two series by configuration, bus count, squares
// and serialised architecture.
func sameDesigns(a, b []*core.Design) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d designs vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Config != b[i].Config || a[i].Buses != b[i].Buses || fmt.Sprint(a[i].Squares) != fmt.Sprint(b[i].Squares) {
			return fmt.Sprintf("design %d: %s/%d/%v vs %s/%d/%v", i, a[i].Config, a[i].Buses, a[i].Squares, b[i].Config, b[i].Buses, b[i].Squares)
		}
		ja, err1 := json.Marshal(a[i].Arch)
		jb, err2 := json.Marshal(b[i].Arch)
		if err1 != nil || err2 != nil || !bytes.Equal(ja, jb) {
			return fmt.Sprintf("design %d (%s): architectures differ", i, a[i].Arch.Name)
		}
	}
	return ""
}
