package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer: name, start and end relative to
// the tracer's origin, and the span that caused it (-1 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records spans in memory around the benchmark's calls into
// qproc's public API. A nil tracer records nothing, so untraced runs pay
// one nil check per call site. Workloads are serial, so spans nest
// strictly and one stack of open spans is enough.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.origin)})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = time.Since(t.origin)
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// selfTimes sums, per span name, each span's duration minus the time
// its direct children cover — the layer's own work. Only spans under
// root (inclusive) count.
func (t *tracer) selfTimes(root int) map[string]time.Duration {
	child := make(map[int]time.Duration)
	in := make(map[int]bool)
	in[root] = true
	for _, s := range t.spans[root+1:] {
		if in[s.Parent] {
			in[s.ID] = true
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans[root:] {
		if in[s.ID] {
			out[s.Name] += s.End - s.Start - child[s.ID]
		}
	}
	return out
}

// duration returns span id's length.
func (t *tracer) duration(id int) time.Duration { return t.spans[id].End - t.spans[id].Start }

// write saves every span as JSON to <run dir>/trace/<workload>-seed<n>.json,
// once the run has ended.
func (t *tracer) write(cfg config, workload string) error {
	dir := filepath.Join(cfg.dir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, cfg.seed)), data, 0o644)
}

// finishTrace reports the trace's validity ratios — the layers' share
// of the traced wall time wall, and overhead, the traced pass's time over
// the untraced one's — and prints each layer's share, largest first.
// Layers the workload does not exercise read 0.
func finishTrace(rep *report, self map[string]time.Duration, wall time.Duration, overhead float64) {
	var layers time.Duration
	type share struct {
		name string
		d    time.Duration
	}
	var shares []share
	for name, d := range self {
		if name != "bench" {
			layers += d
		}
		shares = append(shares, share{name, d})
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].d > shares[j].d })
	for _, s := range shares {
		rep.notef("layer %-8s %10.1f ms  %5.1f%% of traced wall", s.name, ms(s.d), 100*float64(s.d)/float64(wall))
	}
	rep.layer("trace.stage_sum_ratio", float64(layers)/float64(wall))
	rep.layer("trace.overhead_ratio", overhead)
	for _, name := range layerMetrics {
		if _, ok := rep.layers[name]; !ok {
			rep.layer(name, 0)
		}
	}
}

// layerMetrics lists every per-layer metric a traced run reports.
var layerMetrics = []string{
	"core.busy_ms", "layout.busy_ms", "bus.busy_ms", "freq.busy_ms",
	"mapper.busy_ms", "mapper.calls", "mapper.distinct_inputs", "mapper.swaps",
	"yield.busy_ms", "yield.calls", "yield.noise_hits", "yield.noise_misses",
	"collision.kernel_hits", "collision.kernel_misses",
	"search.busy_ms", "search.proposals", "search.evals", "search.cond_checks", "search.cond_skipped",
	"search.step_ms", "search.rest_ms",
	"server.submit_ms", "server.queue_wait_ms", "server.run_ms.fresh", "server.run_ms.cached",
	"server.result_ms", "server.overhead_ms.cached", "server.result_bytes",
	"client.fresh_p50_ms", "client.fresh_tail_ms", "client.cached_p50_ms", "client.cached_tail_ms",
	"runstore.hits", "runstore.misses", "runstore.get_ms", "runstore.put_ms", "runstore.journal_append_ms",
	"metrics.append_ms", "metrics.bytes",
	"bench.busy_ms", "trace.stage_sum_ratio", "trace.overhead_ratio",
}

// layerUnit is a per-layer metric's unit, read off its name.
func layerUnit(name string) string {
	switch {
	case name == "server.result_bytes" || name == "metrics.bytes":
		return "bytes"
	case name == "trace.stage_sum_ratio" || name == "trace.overhead_ratio":
		return "ratio"
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms."):
		return "ms"
	}
	return "count"
}
