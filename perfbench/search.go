package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"qproc/internal/circuit"
	"qproc/internal/collision"
	"qproc/internal/core"
	"qproc/internal/experiments"
	"qproc/internal/gen"
	"qproc/internal/search"
	"qproc/internal/yield"
)

// searchSteps and searchMaxEvals size each search: enough annealing steps
// that the analytic surrogate dominates, few enough Monte-Carlo
// evaluations that it still does.
const (
	searchSteps    = 100
	searchMaxEvals = 10
)

// searchPass is the nominal time of one pass of searchSpecs(gen.Names()).
const searchPass = 14 * time.Second

// searchSpecs is one pass: every benchmark under both strategies, over
// the bare layout and one auxiliary qubit.
func searchSpecs(names []string) []experiments.SearchSpec {
	var specs []experiments.SearchSpec
	for _, n := range names {
		for _, st := range search.Strategies() {
			specs = append(specs, experiments.SearchSpec{
				Benchmark: n, Strategy: st, AuxCounts: []int{0, 1},
				Steps: searchSteps, MaxEvals: searchMaxEvals,
			})
		}
	}
	return specs
}

func runSearch(cfg config, rep *report) error {
	return searchWorkload(cfg, rep, reproduceOptions(cfg.seed), searchSpecs(gen.Names()))
}

// searchOp is one finished search with its progress times.
type searchOp struct {
	spec  experiments.SearchSpec
	out   *experiments.SearchOutcome
	steps []time.Duration // between consecutive progress reports
}

// searchWorkload runs Runner.Search on one runner, one search at a time.
// A traced run adds a second, traced pass (spans around Runner.Search
// and around the checks' mapper calls) whose outcomes must
// equal the untraced pass's.
func searchWorkload(cfg config, rep *report, opt experiments.Options, specs []experiments.SearchSpec) error {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Benchmark
	}
	setup := func() (*experiments.Runner, []*circuit.Circuit, error) { return newInputs(opt, names) }
	if err := rep.extraSetups(func() (func(), error) {
		_, _, err := setup()
		return func() {}, err
	}); err != nil {
		return err
	}

	pass := func(tr *tracer, mc *mapCounter) (*experiments.Runner, []searchOp, error) {
		var runner *experiments.Runner
		var circuits []*circuit.Circuit
		err := rep.setUp(func() (err error) {
			runner, circuits, err = setup()
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		rep.beginPass()
		ops := make([]searchOp, len(specs))
		var cpu, wall time.Duration
		for i, spec := range specs {
			op := &ops[i]
			op.spec = spec
			last := time.Now()
			id := tr.begin("search")
			w := startWatch()
			op.out, err = runner.Search(context.Background(), spec, func(experiments.SearchProgress) {
				now := time.Now()
				op.steps = append(op.steps, now.Sub(last))
				last = now
			})
			opCPU, opWall := w.elapsed()
			tr.end(id)
			if err != nil {
				return nil, nil, err
			}
			cpu, wall = cpu+opCPU, wall+opWall
			failure := checkSearch(tr, mc, opt, circuits[i], op.out)
			if failure != "" {
				failure = fmt.Sprintf("search %s/%s: %s", spec.Benchmark, spec.Strategy, failure)
			}
			rep.op(opCPU, failure)
		}
		rep.pass(cpu, wall)
		return runner, ops, nil
	}

	var ops []searchOp
	for i := passCount(cfg, searchPass); i > 0; i-- {
		var err error
		if _, ops, err = pass(nil, newMapCounter()); err != nil {
			return err
		}
	}
	if !cfg.trace {
		return nil
	}

	tr := newTracer()
	mc := newMapCounter()
	root := tr.begin("bench")
	runner, traced, err := pass(tr, mc)
	if err != nil {
		return err
	}
	tr.end(root)
	overhead := rep.passWalls[1].Seconds() / rep.passWalls[0].Seconds()
	var payloads [][]byte
	var steps []time.Duration
	var proposals, evals int
	var checks, skipped uint64
	for i, op := range traced {
		var a, b bytes.Buffer
		if err := ops[i].out.WriteJSON(&a); err != nil {
			return err
		}
		if err := op.out.WriteJSON(&b); err != nil {
			return err
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			rep.fail("search %s/%s: traced outcome differs from the untraced one", op.spec.Benchmark, op.spec.Strategy)
		}
		payloads = append(payloads, b.Bytes())
		steps = append(steps, op.steps...)
		proposals += op.out.Proposals
		evals += op.out.Evals
		checks += op.out.CondChecks
		skipped += op.out.CondSkipped
	}
	wall := tr.duration(root)
	self := tr.selfTimes(root)
	if err := replayStorage(cfg, rep, "search", payloads); err != nil {
		return err
	}
	nh, nm := runner.NoiseCacheStats()
	kh, km := runner.KernelCache().Stats()
	rep.layerMs("search.busy_ms", self["search"])
	rep.layer("search.proposals", float64(proposals))
	rep.layer("search.evals", float64(evals))
	rep.layer("search.cond_checks", float64(checks))
	rep.layer("search.cond_skipped", float64(skipped))
	rep.layerMs("search.step_ms", median(steps))
	// The checks repeat the two mapper.Map calls of the search's final
	// report (baseline (1) and the winner), so the search's own time
	// outside that report is its span minus theirs.
	rep.layerMs("search.rest_ms", self["search"]-self["mapper"])
	rep.layerMs("mapper.busy_ms", self["mapper"])
	mc.report(rep)
	rep.layer("yield.noise_hits", float64(nh))
	rep.layer("yield.noise_misses", float64(nm))
	rep.layer("collision.kernel_hits", float64(kh))
	rep.layer("collision.kernel_misses", float64(km))
	rep.layerMs("bench.busy_ms", self["bench"])
	finishTrace(rep, self, wall, overhead)
	return tr.write(cfg, "search")
}

// checkSearch re-derives a search's reported figures from outside:
// mapping the program onto IBM baseline (1) and onto the winning
// architecture reproduces Best's gate count, swaps and normalised
// performance; a batch Monte-Carlo estimate under the runner's seed and
// the spec's σ reproduces Best's yield bit for bit; and the search spent
// at most MaxEvals evaluations. It returns "" when every check passes.
func checkSearch(tr *tracer, mc *mapCounter, opt experiments.Options, c *circuit.Circuit, out *experiments.SearchOutcome) string {
	if out.Arch == nil || out.Arch.Freqs == nil {
		return "outcome carries no frequencied architecture"
	}
	if out.Evals > out.Spec.MaxEvals {
		return fmt.Sprintf("%d evaluations, budget %d", out.Evals, out.Spec.MaxEvals)
	}
	base, err := mc.mapTraced(tr, c, core.NewFlow(opt.Seed).Baselines(c)[0].Arch, opt.Mapper)
	if err != nil {
		return err.Error()
	}
	best, err := mc.mapTraced(tr, c, out.Arch, opt.Mapper)
	if err != nil {
		return err.Error()
	}
	if best.GateCount != out.Best.GateCount || best.Swaps != out.Best.Swaps ||
		out.Best.NormPerf != float64(base.GateCount)/float64(best.GateCount) {
		return fmt.Sprintf("remapped to %d gates, %d swaps; outcome says %d, %d, norm perf %v",
			best.GateCount, best.Swaps, out.Best.GateCount, out.Best.Swaps, out.Best.NormPerf)
	}
	// The search's own estimates run inside Runner.Search, out of the
	// trace's sight, so this re-estimate gets no yield span: its time is
	// the benchmark's.
	sim := yield.New(opt.Seed + 7919) // the runner's simulator seed
	sim.Sigma = out.Spec.Sigma
	sim.Trials = opt.YieldTrials
	adj := out.Arch.AdjList()
	y := sim.EstimateFreqsKeyed(collision.TopoKey(adj), adj, out.Arch.Freqs)
	if math.Float64bits(y) != math.Float64bits(out.Best.Yield) {
		return fmt.Sprintf("re-estimated yield %v, outcome says %v", y, out.Best.Yield)
	}
	return ""
}
