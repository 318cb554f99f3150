package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	cats "repro"
	"repro/internal/dataset"
	"repro/internal/ecom"
)

// runConfig is one benchmark run: one workload, one seed, one pass.
type runConfig struct {
	workload workloadSpec
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
}

// runResult is what a run measured. Layers is nil on an untraced run;
// on a traced run EndToEnd is still filled (with tracing on, so it is
// for reading, not for comparing).
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Set       int                `json:"set,omitempty"` // which set of runs in a merged file
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Invalid   string             `json:"invalid,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	// Raw holds the end-to-end timings as the clock read them, before
	// they were scaled by the yardstick (calib.go); for reading only.
	Raw      map[string]float64 `json:"raw,omitempty"`
	YardMS   float64            `json:"yardstick_ms"` // median yardstick reading of the run
	Layers   map[string]float64 `json:"per_layer,omitempty"`
	problems []string
}

// runWorkload performs one run inside its own harness and cleans up
// whatever happens.
func runWorkload(cfg runConfig) (res *runResult, err error) {
	h, err := newHarness()
	if err != nil {
		return nil, err
	}
	defer h.cleanup()
	stop := cleanupOnSignal(h)
	defer stop()
	if cfg.workload.serve {
		res, err = runServe(h, cfg)
	} else {
		res, err = runStream(h, cfg)
	}
	if err == nil {
		err = h.yard.err
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload.Name, err)
	}
	res.Workload, res.Seed = cfg.workload.Name, cfg.seed
	if cfg.trace {
		res.Trace = 1
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.YardMS = median(h.yard.ms)
	if res.Layers != nil {
		res.Layers["host.yardstick_ms"] = res.YardMS
	}
	return res, nil
}

// timedSetup is a finished set-up that knows how long it took.
type timedSetup interface {
	setupSeconds() float64
}

// repeatSetup runs one set-up function several times and keeps the last
// result. setup_s is the median of the times, scaled by the median of
// the yardstick readings taken while they ran (every lap of every set-up
// ends with one); raw is the median as timed. Earlier results are torn
// down before the next attempt so set-ups never overlap.
func repeatSetup[T timedSetup](y *yardstick, n int, setup func() (T, error), teardown func(T)) (last T, scaled, raw float64, err error) {
	first := len(y.ms)
	var times []float64
	for i := 0; i < max(1, n); i++ {
		if i > 0 {
			teardown(last)
		}
		if last, err = setup(); err != nil {
			return last, 0, 0, err
		}
		times = append(times, last.setupSeconds())
	}
	raw = median(times)
	return last, raw * yardstickRefMS / median(y.ms[first:]), raw, nil
}

// serveSetup is a ready server with its models and inputs.
type serveSetup struct {
	dir string
	fx  *fixture
	in  *serveInputs
	srv *server
	laps
}

// laps times a set-up part by part, for setup_s and the breakdown
// printed under it. Each part ends with a yardstick reading, which is not
// counted.
type laps struct {
	y     *yardstick
	t     time.Time
	total float64 // seconds so far
	parts []string
}

func (l *laps) start(y *yardstick) {
	l.y = y
	y.read()
	l.t = time.Now()
}

func (l *laps) mark(name string) {
	d := time.Since(l.t).Seconds()
	l.y.read()
	l.total += d
	l.parts = append(l.parts, fmt.Sprintf("%s %.2f s", name, d))
	l.t = time.Now()
}

func (l *laps) setupSeconds() float64 { return l.total }

func (l *laps) String() string { return strings.Join(l.parts, ", ") }

// setupServe is the serve workloads' whole set-up: train the two
// models and save them, generate every request from the seed, build the
// binaries, boot catsserve to ready.
func setupServe(h *harness, cfg runConfig, spec serveSpec) (*serveSetup, error) {
	dir, err := h.dir("serve")
	if err != nil {
		return nil, err
	}
	st := &serveSetup{dir: dir}
	st.start(h.yard)
	if st.fx, err = trainModels(dir, cfg.sz, cfg.seed); err != nil {
		return nil, err
	}
	st.mark("train and save two models")
	switch cfg.workload.Name {
	case "serve_cold":
		st.in, err = coldInputs(spec, cfg.seconds, cfg.seed)
	default:
		st.in, err = hotInputs(spec, cfg.seconds, cfg.seed)
	}
	if err != nil {
		return nil, err
	}
	st.mark("generate requests")
	if err := h.buildBinaries(); err != nil {
		return nil, err
	}
	st.mark("go build")
	if st.srv, err = h.bootServer(st.fx.modelsDir); err != nil {
		return nil, err
	}
	st.mark("boot to ready")
	return st, nil
}

func (st *serveSetup) teardown() {
	if st == nil {
		return
	}
	if st.srv != nil {
		st.srv.proc.kill()
	}
	os.RemoveAll(st.dir)
}

func runServe(h *harness, cfg runConfig) (*runResult, error) {
	spec := serveSpecs[cfg.workload.Name]
	st, setupS, setupRaw, err := repeatSetup(h.yard, cfg.sz.setups,
		func() (*serveSetup, error) { return setupServe(h, cfg, spec) },
		(*serveSetup).teardown)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	run, err := driveSocket(st.srv, st.in, spec, tr)
	if err != nil {
		return nil, err
	}
	if err := st.srv.stop(); err != nil {
		return nil, err
	}
	v := newVerifier(st.fx, st.in.items)
	res := &runResult{}
	if res.Attempted, res.Failed, err = run.verify(v); err != nil {
		return nil, err
	}
	res.problems = v.problems
	if bad, why := run.invalid(); bad {
		res.Invalid = why
	}
	res.EndToEnd = run.endToEnd(cfg.sz.window)
	res.EndToEnd["setup_s"] = setupS
	res.Raw = map[string]float64{"setup_s": setupRaw, "job_s": run.bulk.span.Seconds()}
	res.EndToEnd["peak_rss_mib"] = st.srv.peakRSSMiB
	run.printSteps(cfg.sz.window)
	fmt.Printf("  set-up (last of %d): %s\n", cfg.sz.setups, &st.laps)

	if cfg.trace {
		items := st.in.items[:min(len(st.in.items), cfg.sz.probeItems)]
		m, err := probeLayers(h, st.fx, st.dir, items, detectBodies(st.in, cfg.sz.probeBodies), run.lowestStepP50(), nil, tr)
		if err != nil {
			return nil, err
		}
		// The socket's figures come last: on a serve workload
		// tokenize.passes_per_comment is the server's own count, which
		// sees coalescing; the in-process pass cannot.
		for k, val := range run.layerMetrics(st.srv, cfg.sz.window, res.Attempted, res.Failed) {
			m[k] = val
		}
		res.Layers = m
		if err := writeTrace(tr, h.root, cfg.workload.Name); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// streamSetup is the stream workloads' prepared inputs.
type streamSetup struct {
	dir string
	fx  *fixture
	c   *corpus
	laps
}

// setupStream is the stream workloads' whole set-up: train and save the
// models, stream the corpus to disk, build the binaries, and prove the
// CLI runs by scoring the 16-item file once.
func setupStream(h *harness, cfg runConfig) (*streamSetup, error) {
	dir, err := h.dir("stream")
	if err != nil {
		return nil, err
	}
	st := &streamSetup{dir: dir}
	st.start(h.yard)
	if st.fx, err = trainModels(dir, cfg.sz, cfg.seed); err != nil {
		return nil, err
	}
	st.mark("train and save two models")
	scale := cfg.seconds / defaultSeconds
	if cfg.workload.Name == "stream_colfmt" {
		st.c, err = writeCorpus(dir, "corpus", int(scale*float64(cfg.sz.colComments)), dataset.FormatColumnar, false, cfg.seed)
	} else {
		st.c, err = writeCorpus(dir, "corpus", int(scale*float64(cfg.sz.jsonComments)), dataset.FormatJSONL, true, cfg.seed)
	}
	if err != nil {
		return nil, err
	}
	st.mark("write corpus")
	if err := h.buildBinaries(); err != nil {
		return nil, err
	}
	st.mark("go build")
	if _, err := runJob(h, st.fx, st.c.smallPath, filepath.Join(dir, "ready.tsv"), false); err != nil {
		return nil, err
	}
	st.mark("first 16-item job")
	return st, nil
}

func (st *streamSetup) teardown() {
	if st != nil {
		os.RemoveAll(st.dir)
	}
}

// job is one finished CLI invocation.
type job struct {
	wall   time.Duration
	rssMiB float64
	factor float64 // yardstick scale for wall; set by the caller
}

// scaledS is the job's wall time at the yardstick's reference speed.
func (j job) scaledS() float64 { return j.wall.Seconds() * j.factor }

// runJob executes `cats -load-model <m> -detect <corpus> -out <tsv>` as
// a child process and times exec → exit. With watchRSS its peak resident
// set is polled meanwhile.
func runJob(h *harness, fx *fixture, corpusPath, outPath string, watchRSS bool) (job, error) {
	t0 := time.Now()
	proc, err := h.start(h.bin("cats"), "-load-model", fx.modelPath[tenantDefault], "-detect", corpusPath, "-out", outPath)
	if err != nil {
		return job{}, err
	}
	var rss float64
	if watchRSS {
		rss = proc.watchHWM()
	}
	if err := proc.wait(170 * time.Second); err != nil {
		return job{}, fmt.Errorf("cats -detect %s: %v\n%s", filepath.Base(corpusPath), err, tail(proc.stderr.String(), 5))
	}
	h.forget(proc)
	return job{wall: time.Since(t0), rssMiB: rss}, nil
}

func runStream(h *harness, cfg runConfig) (*runResult, error) {
	st, setupS, setupRaw, err := repeatSetup(h.yard, cfg.sz.setups,
		func() (*streamSetup, error) { return setupStream(h, cfg) },
		(*streamSetup).teardown)
	if err != nil {
		return nil, err
	}
	res := &runResult{}
	note := func(p string) {
		if p != "" && len(res.problems) < 8 {
			res.problems = append(res.problems, p)
		}
	}

	// One round is the corpus job, then a few 16-item jobs — what one CLI
	// invocation costs before the first item is read: process start, model
	// load, exit — each stretch between two yardstick readings. Rounds
	// repeat for most of the run and at least four times; the first warms
	// the page cache and is timed but not counted.
	var jobs []job
	var outs, smallOuts []string
	var small, smallRaw []float64
	budget := time.Duration(0.8 * cfg.seconds * float64(time.Second))
	reading := h.yard.read()
	for t0 := time.Now(); len(jobs) < 4 || (time.Since(t0) < budget && len(jobs) < 60); {
		out := filepath.Join(st.dir, fmt.Sprintf("detections-%d.tsv", len(jobs)))
		j, err := runJob(h, st.fx, st.c.path, out, true)
		if err != nil {
			return nil, err
		}
		next := h.yard.read()
		j.factor = scale(reading, next)
		jobs, outs = append(jobs, j), append(outs, out)

		var walls []float64
		for i := 0; i < cfg.sz.smallJobs; i++ {
			out := filepath.Join(st.dir, fmt.Sprintf("small-%d.tsv", len(smallOuts)))
			j, err := runJob(h, st.fx, st.c.smallPath, out, false)
			if err != nil {
				return nil, err
			}
			walls, smallOuts = append(walls, ms(j.wall)), append(smallOuts, out)
		}
		reading = h.yard.read()
		for _, w := range walls {
			small, smallRaw = append(small, w*scale(next, reading)), append(smallRaw, w)
		}
	}

	want, err := expectedTSV(st.fx, st.c.path)
	if err != nil {
		return nil, err
	}
	for _, out := range smallOuts {
		failed, problem, err := checkTSV(out, want[:min(len(want), coldItemsPerReq)])
		if err != nil {
			return nil, err
		}
		res.Attempted += coldItemsPerReq
		res.Failed += failed
		note(problem)
	}
	worst := 0
	for _, out := range outs {
		failed, problem, err := checkTSV(out, want)
		if err != nil {
			return nil, err
		}
		res.Attempted += len(want)
		res.Failed += failed
		worst = max(worst, failed)
		note(problem)
	}

	var walls, wallsRaw []float64
	var rss float64
	for i, j := range jobs {
		if i > 0 {
			walls, wallsRaw = append(walls, j.scaledS()), append(wallsRaw, j.wall.Seconds())
		}
		rss = max(rss, j.rssMiB)
	}
	sort.Float64s(small)
	sort.Float64s(smallRaw)
	timings := func(jobS float64, small []float64, setupS float64) map[string]float64 {
		return map[string]float64{
			"setup_s":     setupS,
			"job_s":       jobS,
			"items_per_s": float64(len(want)-worst) / jobS,
			"p50_ms":      percentile(small, 50),
			"p90_ms":      percentile(small, 90),
		}
	}
	jobS := median(walls)
	res.EndToEnd = timings(jobS, small, setupS)
	res.EndToEnd["peak_rss_mib"] = rss
	res.Raw = timings(median(wallsRaw), smallRaw, setupRaw)
	fmt.Printf("  corpus: %d items, %d comments, %s; %d jobs (first not counted), median %.3f s; %d 16-item jobs\n",
		st.c.items, st.c.comments, filepath.Base(st.c.path), len(jobs), jobS, len(small))
	fmt.Printf("  job walls as timed (s): %.3f | %.3f\n", jobs[0].wall.Seconds(), wallsRaw)
	fmt.Printf("  set-up (last of %d): %s\n", cfg.sz.setups, &st.laps)

	if cfg.trace {
		m, err := traceStream(h, cfg, st, median(wallsRaw), res)
		if err != nil {
			return nil, err
		}
		res.Layers = m
	}
	return res, nil
}

// traceStream is a stream workload's traced pass: the serving layers
// are driven with requests cut from the corpus's own head (so every
// per-layer metric has a value on every workload), then the in-process
// probes run on the same items.
func traceStream(h *harness, cfg runConfig, st *streamSetup, jobS float64, res *runResult) (map[string]float64, error) {
	tr := newTracer()
	items, err := readItems(st.c.path, cfg.sz.probeItems)
	if err != nil {
		return nil, err
	}
	spec := serveSpecs["serve_cold"]
	in, err := itemsAsServeInputs(items, spec, cfg.seconds/5)
	if err != nil {
		return nil, err
	}
	srv, err := h.bootServer(st.fx.modelsDir)
	if err != nil {
		return nil, err
	}
	run, err := driveSocket(srv, in, spec, tr)
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	v := newVerifier(st.fx, items)
	attempted, failed, err := run.verify(v)
	if err != nil {
		return nil, err
	}
	res.Attempted += attempted
	res.Failed += failed
	res.problems = append(res.problems, v.problems...)

	m := run.layerMetrics(srv, cfg.sz.window, res.Attempted, res.Failed)
	probes, err := probeLayers(h, st.fx, st.dir, items, detectBodies(in, cfg.sz.probeBodies), run.lowestStepP50(),
		&streamJob{path: st.c.path, wallS: jobS}, tr)
	if err != nil {
		return nil, err
	}
	for k, val := range probes { // the in-process counts win: they repeat exactly
		m[k] = val
	}
	return m, writeTrace(tr, h.root, cfg.workload.Name)
}

func writeTrace(tr *tracer, root, workload string) error {
	path, err := tr.write(root, workload)
	if err == nil {
		fmt.Printf("  trace: %d spans in %s\n", len(tr.spans), path)
	}
	return err
}

// streamJob is the corpus a stream workload's job read and the job's
// median wall time.
type streamJob struct {
	path  string
	wallS float64
}

// probeLayers runs every in-process probe on the given items and detect
// bodies. socketP50MS is the socket's detect median at the lowest rate,
// which net.residual_ms_p50 subtracts the in-process costs from. job is
// the stream workload's corpus job, compared with the same DetectStream
// run in-process on the same file for cats.cli_overhead_s; nil on a
// serve workload, where a CLI job over the probe file stands in for it.
func probeLayers(h *harness, fx *fixture, dir string, items []ecom.Item, bodies []op, socketP50MS float64, job *streamJob, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	lt := &layerTimes{}
	det := fx.oracle[tenantDefault].Detector()
	colPath, jsonlPath, err := probeFiles(dir, items, m, lt)
	if err != nil {
		return nil, err
	}
	if err := probePipeline(det, items, m, lt); err != nil {
		return nil, err
	}
	loopPath, columnar := colPath, true
	if job != nil && filepath.Ext(job.path) == ".jsonl" {
		loopPath, columnar = jsonlPath, false
	}
	if err := probeLoop(det, loopPath, columnar, tr, m, lt); err != nil {
		return nil, err
	}
	if err := probeSnapshots(dir, fx, m); err != nil {
		return nil, err
	}
	handlerP50MS, err := probeServing(fx, bodies, tr, m)
	if err != nil {
		return nil, err
	}
	m["net.residual_ms_p50"] = socketP50MS - handlerP50MS - m["dispatch.submit_wait_ms_p50"]

	if job == nil {
		j, err := runJob(h, fx, colPath, filepath.Join(dir, "probe.tsv"), false)
		if err != nil {
			return nil, err
		}
		job = &streamJob{path: colPath, wallS: j.wall.Seconds()}
	}
	f, err := os.Open(job.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t0 := time.Now()
	if _, err := fx.oracle[tenantDefault].DetectStream(context.Background(), f, 0,
		func(*ecom.Item, cats.Detection) error { return nil }); err != nil {
		return nil, err
	}
	m["cats.cli_overhead_s"] = job.wallS - time.Since(t0).Seconds()
	printLayerTable(lt)
	return m, nil
}
