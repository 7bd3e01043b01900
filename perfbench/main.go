// Command perfbench is qproc's end-to-end benchmark. One invocation runs
// one workload, checks its outputs, and prints every metric by name and
// unit; the last line of standard output is a JSON summary:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"cpu_s": {"value": 16.4, "unit": "s"}, ...}}
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload reproduce --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	reproduce  Runner.RunAll's work at the paper's budgets (Figure 10, 305 designs)
//	search     Runner.Search over 12 benchmarks × {anneal, beam}, one at a time
//	serve      an in-process qserve driven by one closed-loop client
//
// With --trace 0 the summary carries the end-to-end metrics of an
// untraced run. With --trace 1 it carries per-layer metrics: the run
// records spans around the benchmark's own calls into each layer's
// public functions (core, mapper, yield, search, server, runstore,
// metrics) and writes them to .bench_build/run/trace when it ends. Every
// run is serial — one process, one client, one job at a time, one
// worker — because parallel wall-clock time on a small shared machine
// measures the neighbours, not the program. End-to-end times are the
// process's CPU time (user + system, all threads), which leaves out the
// time the host's hypervisor takes the CPU away and the time goroutines
// wait to be woken.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// dir holds everything the run writes: scratch stores and traces.
	dir string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects what a workload measured. Ops are the workload's
// client-visible requests; an op fails when it errors or its output
// check fails. Set-up, pass and op times are CPU times; passWalls are
// the passes' wall-clock times, which the trace compares with.
type report struct {
	attempted, failed int
	setups            []time.Duration
	passes, passWalls []time.Duration
	passOps           [][]time.Duration // op CPU times, one slice per pass
	layers            map[string]metric
	notes             []string
}

func newReport() *report { return &report{layers: map[string]metric{}} }

// beginPass starts a pass: later latencies belong to it.
func (r *report) beginPass() { r.passOps = append(r.passOps, nil) }

// pass records one finished pass's CPU and wall-clock time.
func (r *report) pass(cpu, wall time.Duration) {
	r.passes = append(r.passes, cpu)
	r.passWalls = append(r.passWalls, wall)
}

// sample records one op's CPU time in the current pass.
func (r *report) sample(d time.Duration) {
	r.passOps[len(r.passOps)-1] = append(r.passOps[len(r.passOps)-1], d)
}

// op records one checked op: its CPU time, and the reason its check
// failed, "" when it passed.
func (r *report) op(d time.Duration, failure string) {
	r.sample(d)
	r.check(failure)
}

// check records one checked op that is not a sample.
func (r *report) check(failure string) {
	r.attempted++
	if failure != "" {
		r.fail("%s", failure)
	}
}

// fail records a failed check that belongs to no timed op.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.notef("CHECK FAILED: "+format, args...)
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// layer records a per-layer metric; its unit follows from its name.
func (r *report) layer(name string, v float64) {
	r.layers[name] = metric{Value: v, Unit: layerUnit(name)}
}

func (r *report) layerMs(name string, d time.Duration) {
	r.layer(name, ms(d))
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(config, *report) error{
	"reproduce": runReproduce,
	"search":    runSearch,
	"serve":     runServe,
}

// runDir holds what a run writes, relative to the repository root the
// benchmark runs from.
const runDir = ".bench_build/run"

// setupRepeats is how many extra times each run sets its workload up;
// setup_s is the median of these and the passes' set-ups, so one slow
// file-system call does not move it.
const setupRepeats = 30

func main() {
	workload := flag.String("workload", "", "workload to run: reproduce, search or serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "measurement budget in seconds; at least one pass always runs")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced end-to-end run")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload reproduce|search|serve --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: runDir}
	rep := newReport()
	if err := run(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	sum := summary{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.layers,
	}
	if !cfg.trace {
		sum.Metrics = endToEnd(rep)
	}
	printMetrics(sum.Metrics)
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// endToEnd derives the user-visible metrics of an untraced run.
func endToEnd(rep *report) map[string]metric {
	var p50s, tails []time.Duration
	var pct float64
	for _, ops := range rep.passOps {
		p50, tail, p := latency(ops)
		p50s, tails, pct = append(p50s, p50), append(tails, tail), p
	}
	fmt.Printf("%d passes of %d ops; op_cpu_p50_ms and op_cpu_tail_ms (each pass's p%.1f) are medians over passes\n",
		len(rep.passOps), len(rep.passOps[0]), pct)
	fmt.Printf("pass p50s: %v\npass tails: %v\n", p50s, tails)
	fmt.Printf("pass CPU times: %v\npass wall times: %v\n", rep.passes, rep.passWalls)
	fmt.Printf("%d set-ups, %v to %v of CPU\n", len(rep.setups), sorted(rep.setups)[0], sorted(rep.setups)[len(rep.setups)-1])
	return map[string]metric{
		"setup_s":        {Value: median(rep.setups).Seconds(), Unit: "s"},
		"cpu_s":          {Value: median(rep.passes).Seconds(), Unit: "s"},
		"peak_rss_mb":    {Value: peakRSSMB(), Unit: "MB"},
		"op_cpu_p50_ms":  {Value: ms(median(p50s)), Unit: "ms"},
		"op_cpu_tail_ms": {Value: ms(median(tails)), Unit: "ms"},
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// passCount is how many passes of a workload fit in --seconds, judged by
// the workload's nominal pass time on a 2-core x86 machine, and at least
// one. It depends on --seconds alone, so every run of a workload does
// the same work however fast the machine happens to be. A traced run
// makes one untraced and one traced pass instead.
func passCount(cfg config, nominal time.Duration) int {
	if cfg.trace {
		return 1
	}
	n := int(math.Round(cfg.seconds / nominal.Seconds()))
	if n < 1 {
		return 1
	}
	return n
}

// setUp times one set-up's CPU. It collects garbage first, so that work
// left over from before does not land in the timing.
func (r *report) setUp(fn func() error) error {
	runtime.GC()
	w := startWatch()
	err := fn()
	cpu, _ := w.elapsed()
	r.setups = append(r.setups, cpu)
	return err
}

// extraSetups times setupRepeats set-ups whose instances are torn down
// unused.
func (r *report) extraSetups(setup func() (teardown func(), err error)) error {
	for i := 0; i < setupRepeats; i++ {
		var teardown func()
		if err := r.setUp(func() (err error) {
			teardown, err = setup()
			return err
		}); err != nil {
			return err
		}
		teardown()
	}
	return nil
}

// stopwatch reads the process's CPU time and the wall clock together.
type stopwatch struct {
	cpu  time.Duration
	wall time.Time
}

func startWatch() stopwatch { return stopwatch{cpuTime(), time.Now()} }

// elapsed returns the CPU and wall-clock time since the watch started.
func (w stopwatch) elapsed() (cpu, wall time.Duration) {
	return cpuTime() - w.cpu, time.Since(w.wall)
}

// cpuTime is the CPU time the process has used so far, user and system,
// summed over all its threads. Linux counts it from the scheduler's
// nanosecond clock, without the time the hypervisor ran other guests.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of ds (mean of the middle two when even); 0 for none.
func median[T int | time.Duration](ds []T) T {
	if len(ds) == 0 {
		return 0
	}
	s := sorted(ds)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latency returns the median, the tail and the tail's percentile. The
// tail is the highest percentile with at least ten samples beyond it;
// with ten samples or fewer no percentile has, and the tail is the
// maximum.
func latency(ds []time.Duration) (p50, tail time.Duration, pct float64) {
	if len(ds) == 0 {
		return 0, 0, 0
	}
	s := sorted(ds)
	n := len(s)
	if n <= 10 {
		return median(s), s[n-1], 100
	}
	return median(s), s[n-11], 100 * float64(n-10) / float64(n)
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func sorted[T int | time.Duration](ds []T) []T {
	s := append([]T(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
