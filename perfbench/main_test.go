package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"qproc/internal/experiments"
)

// tinyOptions shrink every Monte-Carlo budget so the smoke tests run
// each workload's code path, checks and trace in seconds.
func tinyOptions() experiments.Options {
	opt := reproduceOptions(3)
	opt.YieldTrials = 256
	opt.FreqLocalTrials = 20
	opt.RandomBusSamples = 1
	return opt
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkNames fails unless got carries exactly the metrics want lists,
// with the same units.
func checkNames(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("%d metrics %v, BENCHMARK.json lists %d", len(got), names, len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("metric %s in %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit)
		}
	}
}

// runTiny runs one workload untraced and traced and checks that both
// pass their output checks and report every listed metric.
func runTiny(t *testing.T, run func(config, *report) error) map[string]metric {
	t.Helper()
	b := loadBenchmarkJSON(t)
	var layers map[string]metric
	for _, traced := range []bool{false, true} {
		rep := newReport()
		cfg := config{seed: 3, seconds: 0.001, trace: traced, dir: t.TempDir()}
		if err := run(cfg, rep); err != nil {
			t.Fatal(err)
		}
		if rep.failed != 0 || rep.attempted == 0 {
			t.Fatalf("traced=%v: %d of %d ops failed: %v", traced, rep.failed, rep.attempted, rep.notes)
		}
		if traced {
			checkNames(t, rep.layers, b.PerLayer)
			layers = rep.layers
		} else {
			checkNames(t, endToEnd(rep), b.EndToEnd)
		}
	}
	return layers
}

func TestReproduceTiny(t *testing.T) {
	layers := runTiny(t, func(cfg config, rep *report) error {
		return reproduce(cfg, rep, tinyOptions(), []string{"sym6_145", "UCCSD_ansatz_8"})
	})
	if r := layers["trace.stage_sum_ratio"].Value; r < 0.9 || r > 1 {
		t.Errorf("stage sum ratio %v, want the layers to cover the traced wall", r)
	}
	for _, n := range []string{"mapper.calls", "layout.busy_ms", "bus.busy_ms", "freq.busy_ms", "core.busy_ms"} {
		if layers[n].Value <= 0 {
			t.Errorf("%s = %v, want > 0", n, layers[n].Value)
		}
	}
}

func TestSearchTiny(t *testing.T) {
	specs := searchSpecs([]string{"sym6_145"})
	for i := range specs {
		specs[i].Steps = 5
		specs[i].MaxEvals = 2
	}
	layers := runTiny(t, func(cfg config, rep *report) error {
		return searchWorkload(cfg, rep, tinyOptions(), specs)
	})
	if layers["search.proposals"].Value <= 0 || layers["search.evals"].Value <= 0 {
		t.Errorf("search counters not recorded: %v", layers)
	}
}

func TestServeTiny(t *testing.T) {
	opt := tinyOptions()
	opt.CheckpointEvery = 25
	layers := runTiny(t, func(cfg config, rep *report) error {
		return serveWorkload(cfg, rep, opt, serveSequence(cfg.seed, 12))
	})
	if layers["runstore.hits"].Value <= 0 || layers["server.run_ms.fresh"].Value <= 0 {
		t.Errorf("serve layers not recorded: %v", layers)
	}
}

func TestServeSequenceAvoidsRetainedJobs(t *testing.T) {
	ops := serveSequence(7, 200)
	fresh := 0
	for i, op := range ops {
		if op.fresh {
			fresh++
			continue
		}
		if recent(ops[:i], op.sigma) {
			t.Fatalf("op %d resubmits a spec the server still retains", i)
		}
	}
	if fresh < 50 || fresh > 60 {
		t.Errorf("%d of 200 ops are new specs, want about one in four", fresh)
	}
}

func TestLatencyTail(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	p50, tail, pct := latency(ds)
	if p50 != 50500*time.Microsecond || tail != 90*time.Millisecond || pct != 90 {
		t.Errorf("latency = %v, %v, p%v; want 50.5ms, 90ms (ten samples beyond), p90", p50, tail, pct)
	}
	if _, tail, _ := latency(ds[90:]); tail != 10*time.Millisecond {
		t.Errorf("tail of ten samples = %v, want their maximum", tail)
	}
}
