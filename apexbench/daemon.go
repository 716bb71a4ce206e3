package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/serve"
)

// The daemon-mixed workload serves an in-process serve.Server (two
// workers, journal and store on) behind a loopback listener to two
// closed-loop clients. Each client submits a job, polls until it is
// terminal, then submits its next one. The seeded mix is about 60%
// compile jobs (a generated kernel unique to the job), 25% evaluate
// jobs with place-and-route over an analyzed application and k <= 3
// merged subgraphs, and 15% analyze jobs.

const (
	daemonWorkers = 2
	daemonClients = 2
	// batchJobs is the number of jobs in one batch; the clients drain a
	// batch before the next one starts.
	batchJobs = 20
	// pollQuantum is the interval between a client's status polls, so
	// job latency reads up to one quantum late.
	pollQuantum = 2 * time.Millisecond
)

// jobSpec is one generated job.
type jobSpec struct {
	Kind   serve.Kind   `json:"kind"`
	Params serve.Params `json:"params"`
	Client string       `json:"client,omitempty"`
}

// jobOutcome is what a client observed for one job.
type jobOutcome struct {
	spec     jobSpec
	latency  time.Duration
	submit   time.Duration
	rejected bool
	job      serve.Job
}

// batchSpecs generates batch b's jobs from the seed.
func batchSpecs(seed int64, b int) []jobSpec {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(b)))
	analyzed := append(apps.AnalyzedIP(), apps.AnalyzedML()...)
	all := apps.Names()
	specs := make([]jobSpec, batchJobs)
	for i := range specs {
		switch r := rng.Intn(100); {
		case r < 60:
			specs[i] = jobSpec{Kind: serve.KindCompile, Params: serve.Params{
				Source: genKernel(rng, kernelSize(rng)), K: rng.Intn(4),
			}}
		case r < 85:
			specs[i] = jobSpec{Kind: serve.KindEvaluate, Params: serve.Params{
				App: analyzed[rng.Intn(len(analyzed))].Name, K: rng.Intn(4), PnR: true, Pipelined: true,
			}}
		default:
			specs[i] = jobSpec{Kind: serve.KindAnalyze, Params: serve.Params{
				App: all[rng.Intn(len(all))], Top: 5,
			}}
		}
	}
	return specs
}

// daemon is one running server and its listener.
type daemon struct {
	srv     *serve.Server
	hs      *http.Server
	url     string
	journal string
	served  chan error
}

func startDaemon(dir string) (*daemon, error) {
	journal := filepath.Join(dir, "journal.json")
	srv, err := serve.New(serve.Config{
		Workers:        daemonWorkers,
		JournalPath:    journal,
		CacheDir:       filepath.Join(dir, "cache"),
		TraceRingSize:  -1,
		SampleInterval: -1,
	})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(),
		journal: journal, served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop closes the listener and drains the server, waiting for both.
func (d *daemon) stop() error {
	err := d.hs.Close()
	<-d.served
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	d.srv.Close()
	return err
}

// client is one closed-loop client with its own connection.
type client struct {
	id   string
	http *http.Client
	base string
}

func newClient(id, base string) *client {
	return &client{id: id, base: base, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

// run submits one job and polls until it is terminal.
func (c *client) run(spec jobSpec) (jobOutcome, error) {
	out := jobOutcome{spec: spec}
	spec.Client = c.id
	body, err := json.Marshal(spec)
	if err != nil {
		return out, err
	}
	start := time.Now()
	resp, err := c.http.Post(c.base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.submit = time.Since(start)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusAccepted {
		out.rejected = true
		out.latency = time.Since(start)
		return out, nil
	}
	if err := json.Unmarshal(data, &out.job); err != nil {
		return out, err
	}
	for {
		switch out.job.State {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
			out.latency = time.Since(start)
			return out, nil
		}
		time.Sleep(pollQuantum)
		resp, err := c.http.Get(c.base + "/api/v1/jobs/" + out.job.ID)
		if err != nil {
			return out, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return out, err
		}
		if resp.StatusCode != http.StatusOK {
			return out, fmt.Errorf("GET job %s: %s", out.job.ID, resp.Status)
		}
		out.job = serve.Job{}
		if err := json.Unmarshal(data, &out.job); err != nil {
			return out, err
		}
	}
}

// runBatch has the clients drain one batch, each taking the next job
// once its previous one is terminal.
func runBatch(clients []*client, specs []jobSpec) ([]jobOutcome, error) {
	outs := make([]jobOutcome, len(specs))
	errs := make([]error, len(clients))
	var next atomic.Int64
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				o, err := c.run(specs[i])
				if err != nil {
					errs[ci] = err
					return
				}
				outs[i] = o
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

func runDaemonMixed(cfg *config, res *result, tr *tracer) error {
	// Set-up: fresh journal and store directories, server construction
	// (store open, journal load), worker start, and the listener.
	// The directories are the benchmark's preparation, made untimed.
	const samples, batch = 25, 5
	dirs, err := cfg.mkdirs("daemon", samples*batch)
	if err != nil {
		return err
	}
	var d *daemon
	setupS, err := setupMedian(samples, batch, func() (func() error, error) {
		var err error
		d, err = startDaemon(dirs[0])
		dirs = dirs[1:]
		if err != nil {
			return nil, err
		}
		return d.stop, nil
	})
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	clients := make([]*client, daemonClients)
	for i := range clients {
		clients[i] = newClient(fmt.Sprintf("client-%c", 'a'+i), d.url)
	}

	mem0 := readMem()
	var outs []jobOutcome
	batches, busy, err := timedLoop(res, cfg.seconds, 2, func(b int) error {
		o, err := runBatch(clients, batchSpecs(cfg.seed, b))
		outs = append(outs, o...)
		return err
	})
	if err != nil {
		return err
	}
	mem1 := readMem()
	journalBytes := fileSize(d.journal)
	storeStats := d.srv.Store().Stats()
	diskBytes, entries := d.srv.Store().DiskBytes()
	memoRatio := memoHitRatio(d.srv.Harness())
	stopped = true
	if err := d.stop(); err != nil {
		return err
	}

	var lat []float64
	cells, failed, rejected := 0, 0, 0
	var firstFail string
	for _, o := range outs {
		res.attempted++
		if o.rejected || o.job.State != serve.StateDone {
			if failed == 0 {
				firstFail = fmt.Sprintf("%s job %s (rejected=%v): state %q, error %q", o.spec.Kind, o.job.ID, o.rejected, o.job.State, o.job.Error)
			}
			failed++
			rejected += b2i(o.rejected)
			continue
		}
		lat = append(lat, o.latency.Seconds())
		if o.spec.Kind != serve.KindAnalyze {
			cells++
		}
	}
	if failed > 0 {
		res.failed = failed
		return gatef("daemon-mixed: %d of %d jobs rejected or not done; first: %s", failed, len(outs), firstFail)
	}
	if err := checkJobs(outs); err != nil {
		return err
	}
	if tr == nil {
		setEndToEnd(res, setupS, batches, lat, busy, cells)
		return nil
	}

	setLayerDefaults(res)
	setRuntime(res, mem0, mem1, len(outs))
	var submit, wait, runMS []float64
	retries := 0
	for _, o := range outs {
		submit = append(submit, ms(o.submit))
		wait = append(wait, ms(o.job.Started.Sub(o.job.Created)))
		runMS = append(runMS, ms(o.job.Finished.Sub(o.job.Started)))
		retries += o.job.Attempts - 1
	}
	res.set("serve.submit_ms", quantile(submit, 0.5), "ms", len(submit))
	res.set("serve.queue_wait_ms", quantile(wait, 0.5), "ms", len(wait))
	res.set("serve.run_ms", quantile(runMS, 0.5), "ms", len(runMS))
	res.set("serve.rejected", float64(rejected), "count", len(outs))
	res.set("serve.retries", float64(retries), "count", len(outs))
	res.set("serve.journal_bytes", float64(journalBytes), "bytes", 1)
	res.set("error_rate", float64(failed)/float64(len(outs)), "ratio", len(outs))
	res.set("store.hits", float64(storeStats.Hits), "count", 1)
	res.set("store.misses", float64(storeStats.Misses), "count", 1)
	res.set("store.puts", float64(storeStats.Puts), "count", 1)
	res.set("store.entries", float64(entries), "count", 1)
	res.set("store.disk_bytes", float64(diskBytes), "bytes", 1)
	res.set("eval.memo_hit_ratio", memoRatio, "ratio", 1)

	t0 := time.Now()
	rp := newReplayer(tr, cfg.seed)
	if err := replayJobs(res, rp, outs); err != nil {
		return err
	}
	replayMS := float64(time.Since(t0)) / float64(time.Millisecond)
	tr.setLayers(res)
	res.set("verify.equiv_designs", float64(rp.equivDesigns), "count", 1)
	res.set("trace.overhead_ms", replayMS-1000*busy.Seconds(), "ms", 1)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// evalPayload is the subset of an evaluate job's result (and of a
// compile job's "eval" block) the gates compare.
type evalPayload struct {
	App          string  `json:"app"`
	Variant      string  `json:"variant"`
	NumPEs       int     `json:"num_pes"`
	NumMems      int     `json:"num_mems"`
	NumRegs      int     `json:"num_regs"`
	RoutingTiles int     `json:"routing_tiles"`
	TotalAreaUM2 float64 `json:"total_area_um2"`
	TotalEnergy  float64 `json:"total_energy_pj"`
	LatencyCyc   int     `json:"latency_cyc"`
	Routed       bool    `json:"routed"`
	Degraded     bool    `json:"degraded"`
	PnRAttempts  int     `json:"pnr_attempts"`
}

func payloadOf(r *core.Result) evalPayload {
	return evalPayload{r.App, r.Variant, r.NumPEs, r.NumMems, r.NumRegs, r.RoutingTiles,
		r.TotalArea, r.TotalEnergy, r.LatencyCyc, r.Routed, r.Degraded, r.PnRAttempts}
}

type compilePayload struct {
	Kernel     string      `json:"kernel"`
	Nodes      int         `json:"nodes"`
	ComputeOps int         `json:"compute_ops"`
	RawOps     int         `json:"raw_ops"`
	Mined      int         `json:"mined"`
	Eval       evalPayload `json:"eval"`
}

type analyzePayload struct {
	App      string `json:"app"`
	Mined    int    `json:"mined"`
	Patterns []struct {
		Code    string `json:"code"`
		MISSize int    `json:"mis_size"`
	} `json:"patterns"`
}

func kernelName(src string) string {
	h := fnv.New64a()
	h.Write([]byte(src))
	return fmt.Sprintf("kernel_%016x", h.Sum64())
}

// compileFront runs the front end a compile job starts with: parse,
// then optimize. It returns the raw and optimized graphs.
func compileFront(rp *replayer, name, src string) (raw, opt *ir.Graph, err error) {
	do := func(span string, fn func()) {
		if rp != nil {
			rp.t.do(span, fn)
		} else {
			fn()
		}
	}
	do("frontend.compile", func() { raw, err = frontend.Compile(name, src) })
	if err != nil {
		return nil, nil, err
	}
	do("ir.optimize", func() { opt = ir.Optimize(raw) })
	return raw, opt, nil
}

// checkJobs is the untraced output gate: every compile result matches
// the front end run on its source, and evaluate jobs of the same cell
// return identical results.
func checkJobs(outs []jobOutcome) error {
	cellResults := map[string][]byte{}
	for _, o := range outs {
		switch o.spec.Kind {
		case serve.KindCompile:
			var got compilePayload
			if err := json.Unmarshal(o.job.Result, &got); err != nil {
				return err
			}
			name := kernelName(o.spec.Params.Source)
			raw, g, err := compileFront(nil, name, o.spec.Params.Source)
			if err != nil {
				return err
			}
			if got.Kernel != name || got.RawOps != raw.ComputeNodeCount() || got.Nodes != g.NumNodes() || got.ComputeOps != g.ComputeNodeCount() {
				return gatef("daemon-mixed: compile job %s result %+v does not match its source", o.job.ID, got)
			}
		case serve.KindEvaluate:
			key := fmt.Sprintf("%s|%d", o.spec.Params.App, o.spec.Params.K)
			if prev, ok := cellResults[key]; ok && !bytes.Equal(prev, o.job.Result) {
				return gatef("daemon-mixed: evaluate %s returned different results", key)
			}
			cellResults[key] = o.job.Result
		}
	}
	return nil
}

// replayJobs replays the distinct work the daemon did: each analyzed
// application and evaluated (app, k) cell once (the daemon's memo
// serves repeats), and every compile job in full, since compile jobs
// bypass the memo. Each replayed result must equal the job's.
func replayJobs(res *result, rp *replayer, outs []jobOutcome) error {
	fw := core.New() // the daemon harness's framework
	analyses := map[string]*core.Analysis{}
	analysis := func(name string) (*core.Analysis, *apps.App, error) {
		app, err := apps.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		if a := analyses[name]; a != nil {
			return a, app, nil
		}
		a, err := rp.analyze(fw, app)
		analyses[name] = a
		return a, app, err
	}
	variants := map[string]*core.PEVariant{}
	evaluated := map[string]bool{}
	var nodesIn, nodesOut []float64
	replayed := 0
	for _, o := range outs {
		p := o.spec.Params
		switch o.spec.Kind {
		case serve.KindAnalyze:
			a, _, err := analysis(p.App)
			if err != nil {
				return err
			}
			var got analyzePayload
			if err := json.Unmarshal(o.job.Result, &got); err != nil {
				return err
			}
			if got.Mined != len(a.Ranked) || len(got.Patterns) != min(p.Top, len(a.Ranked)) {
				return gatef("daemon-mixed: analyze %s mined %d, replay %d", p.App, got.Mined, len(a.Ranked))
			}
			for i, pat := range got.Patterns {
				if pat.Code != a.Ranked[i].Pattern.Code || pat.MISSize != a.Ranked[i].MISSize {
					return gatef("daemon-mixed: analyze %s pattern %d differs from the replay", p.App, i)
				}
			}
		case serve.KindEvaluate:
			key := fmt.Sprintf("%s|%d", p.App, p.K)
			if evaluated[key] {
				continue
			}
			evaluated[key] = true
			a, app, err := analysis(p.App)
			if err != nil {
				return err
			}
			name := "baseline"
			rc := peRecipe{name: name, baseOps: ir.BaselineALUOps(), baseline: true}
			if p.K > 0 {
				name = fmt.Sprintf("%s_k%d", p.App, p.K)
				rc = peRecipe{name: name, baseOps: app.UsedOps(), ranked: core.SelectPatterns(a, p.K)}
			}
			v := variants[name]
			if v == nil {
				if v, err = rp.generate(fw, rc); err != nil {
					return err
				}
				variants[name] = v
			}
			r, err := rp.evaluate(fw, app, v, core.EvalOptions{PnR: p.PnR, Pipelined: p.Pipelined})
			if err != nil {
				return err
			}
			var got evalPayload
			if err := json.Unmarshal(o.job.Result, &got); err != nil {
				return err
			}
			if got != payloadOf(r) {
				return gatef("daemon-mixed: evaluate %s = %+v, replay %+v", key, got, payloadOf(r))
			}
			replayed++
		case serve.KindCompile:
			name := kernelName(p.Source)
			raw, g, err := compileFront(rp, name, p.Source)
			if err != nil {
				return err
			}
			nodesIn = append(nodesIn, float64(raw.NumNodes()))
			nodesOut = append(nodesOut, float64(g.NumNodes()))
			app := &apps.App{Name: name, Graph: g, Unroll: 1, TotalOutputs: 1 << 20}
			kfw := core.New()
			kfw.MineWorkers = 1
			a, err := rp.analyze(kfw, app)
			if err != nil {
				return err
			}
			rc := peRecipe{name: "baseline", baseOps: ir.BaselineALUOps(), baseline: true}
			if p.K > 0 && len(a.Ranked) > 0 {
				rc = peRecipe{name: name + "_pe", baseOps: app.UsedOps(), ranked: core.SelectPatterns(a, p.K)}
			}
			v, err := rp.generate(kfw, rc)
			if err != nil {
				return err
			}
			r, err := rp.evaluate(kfw, app, v, core.PostMapping)
			if err != nil {
				return err
			}
			want := compilePayload{name, g.NumNodes(), g.ComputeNodeCount(), raw.ComputeNodeCount(), len(a.Ranked), payloadOf(r)}
			var got compilePayload
			if err := json.Unmarshal(o.job.Result, &got); err != nil {
				return err
			}
			if got != want {
				return gatef("daemon-mixed: compile %s = %+v, replay %+v", name, got, want)
			}
			replayed++
		}
	}
	res.set("verify.replayed_cells", float64(replayed), "count", 1)
	res.set("ir.nodes_in", quantile(nodesIn, 0.5), "count", len(nodesIn))
	res.set("ir.nodes_out", quantile(nodesOut, 0.5), "count", len(nodesOut))
	res.set("ir.nodes_in_p10", quantile(nodesIn, 0.1), "count", len(nodesIn))
	res.set("ir.nodes_in_p90", quantile(nodesIn, 0.9), "count", len(nodesIn))
	return nil
}
