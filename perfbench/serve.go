package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"qproc/internal/core"
	"qproc/internal/experiments"
	"qproc/internal/gen"
	"qproc/internal/metrics"
	"qproc/internal/retry"
	"qproc/internal/runstore"
	"qproc/internal/server"
)

// serveOps is one pass of the serve workload: this many closed-loop ops,
// servePass long.
const (
	serveOps  = 400
	servePass = 4500 * time.Millisecond
)

// serveBenchmark is the small program every write op sweeps.
const serveBenchmark = "sym6_145"

// serveOptions are qserve's defaults on a serial runner, with the noise
// cache bounded: every write op asks for a fresh σ, whose noise matrices
// (about 3 MB per op at 10 000 trials) an unbounded cache would keep.
func serveOptions() experiments.Options {
	opt := experiments.DefaultOptions()
	opt.Workers = 1
	opt.NoiseCacheBytes = 64 << 20
	opt.CheckpointEvery = 25
	return opt
}

// warmSpec is the set-up's warm-up request.
var warmSpec = []byte(fmt.Sprintf(`{"kind":"sweep","spec":{"benchmarks":[%q],"configs":[%q],"sigmas":[0.005]}}`,
	serveBenchmark, core.ConfigIBM))

// serveOp is one client request: a sweep spec, and whether it is new
// (computed, the write path) or a resubmission the run store answers
// (the read path).
type serveOp struct {
	spec  []byte
	sigma float64
	fresh bool
}

// serveSequence generates n ops from seed. Every fourth op, and each op
// that finds no eligible earlier spec, submits the ibm configuration of
// serveBenchmark at a fresh σ. The others resubmit a random earlier spec
// other than those of the last three ops. With RetainJobs = 1 the server
// still holds the last two jobs in memory at a submission, and sometimes
// a third: it counts a job as finished just after telling its client the
// job is done. A resubmission of a held job is answered from memory, not
// from the run store.
func serveSequence(seed int64, n int) []serveOp {
	rng := rand.New(rand.NewSource(seed))
	var pool []serveOp
	used := map[float64]bool{}
	var ops []serveOp
	for i := 0; i < n; i++ {
		var eligible []serveOp
		if i%4 != 0 {
			for _, p := range pool {
				if !recent(ops, p.sigma) {
					eligible = append(eligible, p)
				}
			}
		}
		if len(eligible) == 0 {
			sigma := 0.01 + float64(rng.Intn(50000))*1e-6
			for used[sigma] {
				sigma = 0.01 + float64(rng.Intn(50000))*1e-6
			}
			used[sigma] = true
			spec := fmt.Sprintf(`{"kind":"sweep","spec":{"benchmarks":[%q],"configs":[%q],"sigmas":[%v]}}`,
				serveBenchmark, core.ConfigIBM, sigma)
			op := serveOp{spec: []byte(spec), sigma: sigma, fresh: true}
			pool = append(pool, op)
			ops = append(ops, op)
			continue
		}
		op := eligible[rng.Intn(len(eligible))]
		op.fresh = false
		ops = append(ops, op)
	}
	return ops
}

// recent reports whether one of the last three ops used sigma.
func recent(ops []serveOp, sigma float64) bool {
	for j := len(ops) - 1; j >= 0 && j >= len(ops)-3; j-- {
		if ops[j].sigma == sigma {
			return true
		}
	}
	return false
}

// qserve is an in-process qserve laid out as `qserve -store <dir>` lays
// itself out, behind an httptest listener.
type qserve struct {
	dir     string
	srv     *server.Server
	ts      *httptest.Server
	journal *runstore.Journal
	metrics *metrics.Store
}

func startQserve(dir string, opt experiments.Options) (*qserve, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	q := &qserve{dir: dir}
	store, err := runstore.Open(dir)
	if err != nil {
		return nil, err
	}
	if q.journal, err = runstore.OpenJournal(filepath.Join(dir, "jobs.ndjson"), 1, runstore.WithFsync(true)); err != nil {
		return nil, err
	}
	if q.metrics, err = metrics.Open(filepath.Join(dir, "metrics"), metrics.Retention{MaxBytes: 64 << 20}); err != nil {
		q.journal.Close()
		return nil, err
	}
	q.srv, err = server.New(server.Config{
		Runner:     experiments.NewRunner(opt),
		Store:      store,
		Journal:    q.journal,
		Metrics:    q.metrics,
		Executors:  1,
		RetainJobs: 1,
		Retry: retry.Policy{Failed: 1, Interrupted: 2, Base: 500 * time.Millisecond,
			Cap: 30 * time.Second, JitterFrac: 0.2, Seed: opt.Seed},
	})
	if err != nil {
		q.journal.Close()
		q.metrics.Close()
		return nil, err
	}
	q.ts = httptest.NewServer(q.srv.Handler())
	// One computed request warms the server up: it opens the client's
	// connection and runs the job path once, so lazy first-use work lands
	// in the set-up rather than in the first timed op. Its σ lies outside
	// the range serveSequence draws from.
	res, err := q.do(nil, warmSpec)
	if err == nil && res.view.Status != "done" {
		err = fmt.Errorf("warm-up job is %s", res.view.Status)
	}
	if err != nil {
		q.stop()
		return nil, err
	}
	return q, nil
}

// stop drains the server, closes the listener and files, and deletes the
// directory.
func (q *qserve) stop() {
	q.srv.Close()
	q.ts.Close()
	q.journal.Close()
	q.metrics.Close()
	os.RemoveAll(q.dir)
}

// jobView is the part of a job's status the benchmark reads.
type jobView struct {
	ID        string     `json:"id"`
	Status    string     `json:"status"`
	Cached    bool       `json:"cached"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
}

// opResult is what one op observed: its wall-clock latency and parts,
// and the CPU time the process (client and server) spent on it.
type opResult struct {
	latency, submit, result time.Duration
	cpu                     time.Duration
	payload                 []byte
	view                    jobView
}

// do runs one op — submit, follow the event stream to its end, fetch the
// result — then reads the job's status outside the timed span.
func (q *qserve) do(tr *tracer, spec []byte) (opResult, error) {
	var res opResult
	c := q.ts.Client()
	w := startWatch()
	t0 := w.wall
	id := tr.begin("server.submit")
	resp, err := c.Post(q.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
	var view jobView
	if err == nil {
		err = decodeResponse(resp, &view)
	}
	tr.end(id)
	res.submit = time.Since(t0)
	if err != nil {
		return res, fmt.Errorf("submit: %w", err)
	}
	id = tr.begin("server.events")
	err = get(c, q.ts.URL+"/v1/jobs/"+view.ID+"/events", nil)
	tr.end(id)
	if err != nil {
		return res, fmt.Errorf("events: %w", err)
	}
	t1 := time.Now()
	id = tr.begin("server.result")
	err = get(c, q.ts.URL+"/v1/jobs/"+view.ID+"/result", &res.payload)
	tr.end(id)
	res.result = time.Since(t1)
	res.cpu, res.latency = w.elapsed()
	if err != nil {
		return res, fmt.Errorf("result: %w", err)
	}
	var status []byte
	if err := get(c, q.ts.URL+"/v1/jobs/"+view.ID, &status); err != nil {
		return res, fmt.Errorf("status: %w", err)
	}
	return res, json.Unmarshal(status, &res.view)
}

// get fetches url, requiring 200, into *body when body is non-nil.
func get(c *http.Client, url string, body *[]byte) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	if body != nil {
		*body = data
	}
	return nil
}

func decodeResponse(resp *http.Response, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, v)
}

// serveTimes are a run's observations, split by path.
type serveTimes struct {
	fresh, cached                []time.Duration // client latency
	freshCPU, cachedCPU          []time.Duration
	runFresh, runCached          []time.Duration // finished − started
	queueWait, submit, result    []time.Duration
	overheadCached               []time.Duration // client latency − run time
	resultBytes                  []int
	payloads                     [][]byte // one per fresh op
	storeHits, storeMiss, mBytes float64
}

func runServe(cfg config, rep *report) error {
	return serveWorkload(cfg, rep, serveOptions(), serveSequence(cfg.seed, serveOps))
}

// serveWorkload drives an in-process qserve with one closed-loop client.
// The server and its store, journal and metrics directory start empty
// on every pass.
func serveWorkload(cfg config, rep *report, opt experiments.Options, ops []serveOp) error {
	b, err := gen.Get(serveBenchmark)
	if err != nil {
		return err
	}
	baselines := len(core.NewFlow(opt.Seed).Baselines(b.Build()))
	n := 0
	dir := func() string {
		n++
		return filepath.Join(cfg.dir, fmt.Sprintf("serve-%d-%d", os.Getpid(), n))
	}
	if err := rep.extraSetups(func() (func(), error) {
		q, err := startQserve(dir(), opt)
		if err != nil {
			return nil, err
		}
		return q.stop, nil
	}); err != nil {
		return err
	}

	// pass appends its observations to st.
	pass := func(tr *tracer, st *serveTimes) error {
		var q *qserve
		if err := rep.setUp(func() (err error) {
			q, err = startQserve(dir(), opt)
			return err
		}); err != nil {
			return err
		}
		defer q.stop()
		rep.beginPass()
		first := map[string][]byte{}
		var cpu, wall time.Duration
		for _, op := range ops {
			res, err := q.do(tr, op.spec)
			if err != nil {
				rep.attempted++
				rep.fail("serve op σ=%v: %v", op.sigma, err)
				continue
			}
			cpu, wall = cpu+res.cpu, wall+res.latency
			failure := checkServeOp(op, res, first, baselines)
			if failure != "" {
				failure = fmt.Sprintf("serve op σ=%v: %s", op.sigma, failure)
			}
			// Only computed ops are samples. A store-served op's CPU time
			// (about 1.5 ms of HTTP, store read and fsync'd journal
			// appends) rose by a third with the host's load, and its
			// ten-run spread reached the 0.25 bound.
			if op.fresh {
				rep.op(res.cpu, failure)
			} else {
				rep.check(failure)
			}
			if failure != "" {
				continue
			}
			run := res.view.Finished.Sub(*res.view.Started)
			st.queueWait = append(st.queueWait, res.view.Started.Sub(res.view.Submitted))
			st.submit = append(st.submit, res.submit)
			st.result = append(st.result, res.result)
			st.resultBytes = append(st.resultBytes, len(res.payload))
			if op.fresh {
				st.fresh = append(st.fresh, res.latency)
				st.freshCPU = append(st.freshCPU, res.cpu)
				st.runFresh = append(st.runFresh, run)
				st.payloads = append(st.payloads, res.payload)
			} else {
				st.cached = append(st.cached, res.latency)
				st.cachedCPU = append(st.cachedCPU, res.cpu)
				st.runCached = append(st.runCached, run)
				st.overheadCached = append(st.overheadCached, res.latency-run)
			}
		}
		rep.pass(cpu, wall)
		var stats struct {
			Store   struct{ Hits, Misses float64 }
			Metrics struct{ Bytes float64 }
		}
		var raw []byte
		if err := get(q.ts.Client(), q.ts.URL+"/v1/stats", &raw); err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &stats); err != nil {
			return err
		}
		st.storeHits, st.storeMiss, st.mBytes = stats.Store.Hits, stats.Store.Misses, stats.Metrics.Bytes
		return nil
	}

	st := &serveTimes{}
	for i := passCount(cfg, servePass); i > 0; i-- {
		if err := pass(nil, st); err != nil {
			return err
		}
	}
	fp50, ftail, _ := latency(st.fresh)
	cp50, ctail, _ := latency(st.cached)
	rep.notef("write path: %d fresh ops, latency p50 %.2f ms, tail %.2f ms, CPU p50 %.2f ms, total %.0f ms",
		len(st.fresh), ms(fp50), ms(ftail), ms(median(st.freshCPU)), ms(sum(st.freshCPU)))
	rep.notef("read path: %d store-served ops, latency p50 %.2f ms, tail %.2f ms, CPU p50 %.2f ms, total %.0f ms",
		len(st.cached), ms(cp50), ms(ctail), ms(median(st.cachedCPU)), ms(sum(st.cachedCPU)))
	if !cfg.trace {
		return nil
	}

	tr := newTracer()
	root := tr.begin("bench")
	st = &serveTimes{}
	err = pass(tr, st)
	tr.end(root)
	if err != nil {
		return err
	}
	overhead := rep.passWalls[1].Seconds() / rep.passWalls[0].Seconds()
	wall := tr.duration(root)
	self := tr.selfTimes(root)
	if err := replayStorage(cfg, rep, "serve", st.payloads); err != nil {
		return err
	}
	fp50, ftail, _ = latency(st.fresh)
	cp50, ctail, _ = latency(st.cached)
	rep.layerMs("client.fresh_p50_ms", fp50)
	rep.layerMs("client.fresh_tail_ms", ftail)
	rep.layerMs("client.cached_p50_ms", cp50)
	rep.layerMs("client.cached_tail_ms", ctail)
	rep.layerMs("server.submit_ms", median(st.submit))
	rep.layerMs("server.queue_wait_ms", median(st.queueWait))
	rep.layerMs("server.run_ms.fresh", median(st.runFresh))
	rep.layerMs("server.run_ms.cached", median(st.runCached))
	rep.layerMs("server.result_ms", median(st.result))
	rep.layerMs("server.overhead_ms.cached", median(st.overheadCached))
	rep.layer("server.result_bytes", float64(median(st.resultBytes)))
	rep.layer("runstore.hits", st.storeHits)
	rep.layer("runstore.misses", st.storeMiss)
	rep.layer("metrics.bytes", st.mBytes)
	rep.layerMs("bench.busy_ms", self["bench"])
	finishTrace(rep, self, wall, overhead)
	return tr.write(cfg, "serve")
}

// checkServeOp checks one op's outcome. A new spec must come back
// computed, decode as a sweep of the ibm baselines that fit the program
// at the requested σ, and becomes the reference payload for its job id;
// a resubmission must come back from the run store, byte-equal to that
// reference.
func checkServeOp(op serveOp, res opResult, first map[string][]byte, baselines int) string {
	v := res.view
	if v.Status != "done" || v.Started == nil || v.Finished == nil {
		return fmt.Sprintf("job %s is %s", v.ID, v.Status)
	}
	if !op.fresh {
		ref, ok := first[v.ID]
		switch {
		case !ok:
			return "resubmitted job id " + v.ID + " was never computed"
		case !v.Cached:
			return "resubmission was recomputed, not served from the run store"
		case !bytes.Equal(ref, res.payload):
			return "store-served payload differs from the computed one"
		}
		return ""
	}
	if v.Cached {
		return "new spec served from the run store"
	}
	out, err := experiments.ReadSweepJSON(bytes.NewReader(res.payload))
	if err != nil {
		return err.Error()
	}
	if len(out.Points) != baselines {
		return fmt.Sprintf("%d points, want %d baselines", len(out.Points), baselines)
	}
	for _, p := range out.Points {
		if p.Benchmark != serveBenchmark || p.Config != core.ConfigIBM || p.Sigma != op.sigma || !(p.Yield >= 0 && p.Yield <= 1) {
			return fmt.Sprintf("unexpected point %+v", p)
		}
	}
	first[v.ID] = res.payload
	return ""
}
