package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"
)

// phase is one timed stretch of a socket run with what bracketed it.
type phase struct {
	name    string
	samples []sample
	t0      time.Time     // wall-clock start, for the trace
	span    time.Duration // scheduled length (open loop) or measured wall (closed loop)
	cpu     time.Duration // server CPU consumed meanwhile
	cpuOK   bool
	before  scrape // /metrics at both ends; traced runs only
	after   scrape
}

// cpuShare is the server's CPU use over the phase as a share of all
// the machine's processors.
func (p *phase) cpuShare() float64 {
	if !p.cpuOK || p.span <= 0 {
		return 1 // unknown: never blame the generator
	}
	return p.cpu.Seconds() / (p.span.Seconds() * float64(runtime.NumCPU()))
}

// socketRun is everything measured against one booted catsserve.
type socketRun struct {
	spec  serveSpec
	warm  phase
	steps []phase
	bulk  phase
	// chunks are the equal pieces the backlog was sent in, one after the
	// other, each timed on its own.
	chunks []chunk
	// traced runs only: sequential probes on one connection after the
	// timed phases, and the scrape round trips.
	explain, feedback, reload []sample
	retrainMS                 float64
	scrapeMS                  []float64
}

func (r *socketRun) phases() []*phase {
	ps := []*phase{&r.warm}
	for i := range r.steps {
		ps = append(ps, &r.steps[i])
	}
	return append(ps, &r.bulk)
}

// chunk is one piece of the backlog: bulk.samples[from:to] and the wall
// time from its first send to its last reply.
type chunk struct {
	from, to int
	wall     time.Duration
}

// splitEvenly cuts a closed-loop backlog into n chunks of equal size (the
// last takes the remainder).
func splitEvenly(ops []op, n int) [][]op {
	n = max(1, min(n, len(ops)))
	size := len(ops) / n
	parts := make([][]op, n)
	for i := range parts {
		parts[i] = ops[i*size : (i+1)*size]
	}
	parts[n-1] = ops[(n-1)*size:]
	return parts
}

// connCount is C: one sender per processor, at most four.
func connCount() int { return min(runtime.NumCPU(), 4) }

// driveSocket runs the warm-up, the fixed-rate steps and the closed-loop
// backlog against a ready server, then (traced) the sequential probes.
// tr may be nil.
func driveSocket(srv *server, in *serveInputs, spec serveSpec, tr *tracer) (*socketRun, error) {
	cs := newConns(srv.base, connCount())
	defer cs.close()
	admin := &http.Client{Timeout: 30 * time.Second}
	defer admin.CloseIdleConnections()
	clk := realClock{}
	run := &socketRun{spec: spec}

	bracket := func(p *phase, body func()) error {
		if tr != nil {
			var d time.Duration
			var err error
			if p.before, d, err = srv.scrapeMetrics(admin); err != nil {
				return err
			}
			run.scrapeMS = append(run.scrapeMS, ms(d))
		}
		cpu0, ok0 := srv.proc.cpu()
		p.t0 = time.Now()
		body()
		cpu1, ok1 := srv.proc.cpu()
		p.cpu, p.cpuOK = cpu1-cpu0, ok0 && ok1
		if tr != nil {
			var d time.Duration
			var err error
			if p.after, d, err = srv.scrapeMetrics(admin); err != nil {
				return err
			}
			run.scrapeMS = append(run.scrapeMS, ms(d))
		}
		return nil
	}

	run.warm.name = "warm"
	if err := bracket(&run.warm, func() {
		run.warm.samples, run.warm.span = runClosed(clk, in.warm, len(cs.clients), cs.send)
	}); err != nil {
		return nil, err
	}
	run.steps = make([]phase, len(in.steps))
	for i := range in.steps {
		p := &run.steps[i]
		p.name = fmt.Sprintf("step%d@%d", i, spec.stepsRPS[i])
		p.span = in.stepDur[i]
		// Let the previous phase's last replies land and the server go
		// idle, so each step starts from an empty queue.
		time.Sleep(50 * time.Millisecond)
		if err := bracket(p, func() {
			p.samples = runOpen(clk, in.steps[i], len(cs.clients), p.span, cs.send)
		}); err != nil {
			return nil, err
		}
	}
	time.Sleep(50 * time.Millisecond)
	run.bulk.name = "bulk"
	if err := bracket(&run.bulk, func() {
		b := &run.bulk
		t0 := time.Now()
		for _, ops := range splitEvenly(in.bulk, spec.bulkChunks) {
			off := time.Since(t0)
			samples, wall := runClosed(clk, ops, len(cs.clients), cs.send)
			for i := range samples {
				samples[i].due += off
				samples[i].start += off
				samples[i].end += off
			}
			run.chunks = append(run.chunks, chunk{from: len(b.samples), to: len(b.samples) + len(samples), wall: wall})
			b.samples = append(b.samples, samples...)
		}
		b.span = time.Since(t0)
	}); err != nil {
		return nil, err
	}

	if tr != nil {
		run.probe(cs, in)
		for _, p := range run.phases() {
			root := tr.add(p.name, 0, 0, p.t0, p.t0.Add(p.span))
			for i := range p.samples {
				if s := &p.samples[i]; s.sent {
					tr.add("gen."+s.op.kind.String(), root, i+1, p.t0.Add(s.start), p.t0.Add(s.end))
				}
			}
		}
	}
	return run, nil
}

// probe sends the sequential single-connection requests behind
// service.explain_ms_p50, service.feedback_ms_p50, registry.reload_ms_p50
// and trainer.retrain_ms. The retrain comes last: a promotion would
// change the model the oracle compares against.
func (r *socketRun) probe(cs *conns, in *serveInputs) {
	const n = 30
	clk := realClock{}
	itemJSON, err := marshalItems(in.items[:min(len(in.items), n+feedbackEntries)])
	if err != nil {
		return // the same items marshalled fine when the inputs were built
	}
	var explain, feedback, reload []op
	for i := 0; i < n && i < len(itemJSON); i++ {
		explain = append(explain, op{kind: opExplain, tenant: tenantDefault, path: "/v1/explain", body: explainBody(itemJSON[i]), items: []int32{int32(i)}})
		idx := make([]int32, 0, feedbackEntries)
		for k := 0; k < feedbackEntries; k++ {
			idx = append(idx, int32((i+k)%len(itemJSON)))
		}
		feedback = append(feedback, op{kind: opFeedback, tenant: tenantDefault, path: "/v1/feedback",
			body: feedbackBody(in.items, itemJSON, idx), items: idx})
	}
	for i := 0; i < 5; i++ {
		reload = append(reload, op{kind: opReload, tenant: tenantOther, path: "/admin/reload",
			body: []byte(`{"tenant":"` + tenantOther + `"}`)})
	}
	r.explain, _ = runClosed(clk, explain, 1, cs.send)
	r.feedback, _ = runClosed(clk, feedback, 1, cs.send)
	r.reload, _ = runClosed(clk, reload, 1, cs.send)
	retrain := []op{{kind: opRetrain, path: "/admin/retrain", body: []byte(`{}`)}}
	s, _ := runClosed(clk, retrain, 1, cs.send)
	if s[0].err == nil && s[0].code == 200 {
		r.retrainMS = ms(s[0].end - s[0].start)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// verify checks every response of the run against the oracle and
// returns the counts behind failed_share.
func (r *socketRun) verify(v *verifier) (attempted, failed int, err error) {
	all := [][]sample{r.explain, r.feedback, r.reload}
	for _, p := range r.phases() {
		all = append(all, p.samples)
	}
	if err := v.prepare(all...); err != nil {
		return 0, 0, err
	}
	count := func(name string, s []sample) {
		a, f := v.check(name, s)
		attempted += a
		failed += f
	}
	for _, p := range r.phases() {
		count(p.name, p.samples)
	}
	count("probe", r.explain)
	count("probe", r.feedback)
	count("probe", r.reload)
	return attempted, failed, nil
}

// stepReport is one fixed-rate step as a user would read it.
type stepReport struct {
	rps                 int
	scheduled, sent, ok int
	withinLimit         int
	p50, pTop, topP     float64
	lateLast            float64 // lateness percentile over the step's last window
	passes              bool
}

// reportSteps applies the rate-step rule: a step passes when at least
// 90% of the requests scheduled completed correctly within the limit
// and the generator's lateness over the step's last window stayed under
// the limit too (no growing backlog). Reloads are left out: they are
// the writer whose effect on the readers is being measured.
func (r *socketRun) reportSteps(window time.Duration) []stepReport {
	out := make([]stepReport, len(r.steps))
	for i := range r.steps {
		p := &r.steps[i]
		rep := stepReport{rps: r.spec.stepsRPS[i]}
		var lat, lateLast []float64
		lastFrom := p.span - min(window, p.span)
		for k := range p.samples {
			s := &p.samples[k]
			if s.op.kind == opReload {
				continue
			}
			rep.scheduled++
			late := 1e9 // never sent
			if s.sent {
				rep.sent++
				late = s.lateMS()
				lat = append(lat, s.latencyMS())
				if s.ok {
					rep.ok++
					if s.latencyMS() <= r.spec.limitMS {
						rep.withinLimit++
					}
				}
			}
			if s.due >= lastFrom {
				lateLast = append(lateLast, late)
			}
		}
		sort.Float64s(lat)
		sort.Float64s(lateLast)
		rep.p50 = percentile(lat, 50)
		rep.topP = topPercentile(len(lat))
		rep.pTop = percentile(lat, rep.topP)
		rep.lateLast = percentile(lateLast, topPercentile(len(lateLast)))
		rep.passes = rep.scheduled > 0 &&
			float64(rep.withinLimit) >= 0.9*float64(rep.scheduled) && rep.lateLast < r.spec.limitMS
		out[i] = rep
	}
	return out
}

// detectLatencies returns the reference step's detect requests as timed
// observations keyed by due time.
func (r *socketRun) detectLatencies(step int) []timed {
	var obs []timed
	for i := range r.steps[step].samples {
		if s := &r.steps[step].samples[i]; s.sent && s.op.kind == opDetect {
			obs = append(obs, timed{at: s.due, value: s.latencyMS()})
		}
	}
	return obs
}

// endToEnd computes the serve workloads' gated metrics; setup_s and
// peak_rss_mib are added by the caller. The backlog's figures are
// medians over its chunks, so a stall of the machine moves one chunk,
// not the figure: items_per_s is the median chunk's rate, job_s the
// backlog at the median chunk's pace.
func (r *socketRun) endToEnd(window time.Duration) map[string]float64 {
	ref := r.detectLatencies(r.spec.reference)
	span := r.steps[r.spec.reference].span
	var rates, perReq []float64
	for _, c := range r.chunks {
		items := 0
		for i := c.from; i < c.to; i++ {
			items += r.bulk.samples[i].correctItems
		}
		rates = append(rates, float64(items)/c.wall.Seconds())
		perReq = append(perReq, c.wall.Seconds()/float64(c.to-c.from))
	}
	return map[string]float64{
		"items_per_s": median(rates),
		"job_s":       median(perReq) * float64(len(r.bulk.samples)),
		"p50_ms":      windowStat(ref, window, span, func(s []float64) float64 { return percentile(s, 50) }),
		"p90_ms":      windowStat(ref, window, span, func(s []float64) float64 { return percentile(s, 90) }),
	}
}

// invalid reports a run whose generator, not the server, was the
// bottleneck at the reference step: the generator ran later than the
// latency limit while the server had more than half the machine idle.
func (r *socketRun) invalid() (bool, string) {
	p := &r.steps[r.spec.reference]
	late := r.lateP99(p)
	if late > r.spec.limitMS && p.cpuShare() < 0.5 {
		return true, fmt.Sprintf("generator-bound: gen.late_ms_p99 %.1f ms exceeds the %.0f ms limit at the reference step while catsserve used %.0f%% of the CPU",
			late, r.spec.limitMS, 100*p.cpuShare())
	}
	return false, ""
}

func (r *socketRun) lateP99(p *phase) float64 {
	var late []float64
	for i := range p.samples {
		if s := &p.samples[i]; s.sent {
			late = append(late, s.lateMS())
		}
	}
	sort.Float64s(late)
	return percentile(late, 99)
}

// layerMetrics computes the per-layer figures a socket run yields: the
// server's own counters as deltas over the backlog phase, the
// generator's self-report, and the sequential probes.
func (r *socketRun) layerMetrics(srv *server, window time.Duration, attempted, failed int) map[string]float64 {
	m := map[string]float64{"catsserve.boot_ms": srv.bootMS}
	b := &r.bulk
	delta := func(name string, frags ...string) float64 {
		return b.after.total(name, frags...) - b.before.total(name, frags...)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	coalesced := delta("cats_serve_coalesced_total")
	dispatched := delta("cats_serve_batch_size_sum")
	m["dispatch.queue_wait_ms_mean"] = 1000 * ratio(delta("cats_serve_wait_seconds_sum"), delta("cats_serve_wait_seconds_count"))
	m["dispatch.batch_items_mean"] = ratio(dispatched, delta("cats_serve_batch_size_count"))
	m["dispatch.coalesced_share"] = ratio(coalesced, coalesced+dispatched)
	sentBulk, commentsBulk, correctBulk := 0, 0, 0
	for i := range b.samples {
		s := &b.samples[i]
		if !s.sent {
			continue
		}
		sentBulk++
		correctBulk += s.correctItems
		if s.op.kind == opDetect || s.op.kind == opExplain {
			commentsBulk += s.op.comments
		}
	}
	m["dispatch.shed_share"] = ratio(delta("cats_serve_shed_total"), float64(sentBulk))
	// Segmentation passes per comment submitted, from the server's own
	// count: one per comment without coalescing, fewer with it.
	m["tokenize.passes_per_comment"] = ratio(delta("cats_pipeline_comments_total"), float64(commentsBulk))
	cores := b.span.Seconds() * float64(connCount())
	m["core.analyze_s_share"] = ratio(delta("cats_pipeline_stage_seconds_sum", `stage="analyze"`), cores)
	m["core.score_s_share"] = ratio(delta("cats_pipeline_stage_seconds_sum", `stage="score"`), cores)
	m["catsserve.cpu_ms_per_item"] = ratio(ms(b.cpu), float64(correctBulk))

	ref := &r.steps[r.spec.reference]
	m["gen.late_ms_p99"] = r.lateP99(ref)
	scheduled, sent := 0, 0
	for i := range r.steps {
		for k := range r.steps[i].samples {
			scheduled++
			if r.steps[i].samples[k].sent {
				sent++
			}
		}
	}
	m["gen.sent_share"] = ratio(float64(sent), float64(scheduled))
	var lat []float64
	for _, o := range r.detectLatencies(r.spec.reference) {
		lat = append(lat, o.value)
	}
	sort.Float64s(lat)
	m["gen.p99_ms"] = percentile(lat, 99)

	m["max_ok_rps"] = 0
	for i, rep := range r.reportSteps(window) {
		if rep.passes {
			m["max_ok_rps"] = float64(rep.withinLimit) / r.steps[i].span.Seconds()
		}
	}
	m["failed_share"] = ratio(float64(failed), float64(attempted))

	p50 := func(samples []sample) float64 {
		var v []float64
		for i := range samples {
			if samples[i].ok {
				v = append(v, ms(samples[i].end-samples[i].start))
			}
		}
		return median(v)
	}
	m["service.explain_ms_p50"] = p50(r.explain)
	m["service.feedback_ms_p50"] = p50(r.feedback)
	m["registry.reload_ms_p50"] = p50(r.reload)
	m["trainer.retrain_ms"] = r.retrainMS
	m["obs.scrape_ms"] = median(r.scrapeMS)
	return m
}

// lowestStepP50 is the socket p50 of detect requests at the lowest
// rate, where queueing is absent — the figure net.residual_ms_p50
// subtracts the in-process costs from.
func (r *socketRun) lowestStepP50() float64 {
	var lat []float64
	for _, o := range r.detectLatencies(0) {
		lat = append(lat, o.value)
	}
	return median(lat)
}

// printSteps writes the per-step table a reader checks the knee on.
func (r *socketRun) printSteps(window time.Duration) {
	fmt.Printf("  %-10s %9s %6s %6s %8s %9s %9s %10s  %s\n", "step", "scheduled", "sent", "ok", "in-limit", "p50_ms", "tail_ms", "late_ms", "verdict")
	for i, rep := range r.reportSteps(window) {
		verdict := "over"
		if rep.passes {
			verdict = "ok"
		}
		mark := ""
		if i == r.spec.reference {
			mark = " (reference)"
		}
		fmt.Printf("  %4d req/s %9d %6d %6d %8d %9.3f %9.3f %10.3f  %s%s  [tail = p%g, CPU %.0f%%]\n",
			rep.rps, rep.scheduled, rep.sent, rep.ok, rep.withinLimit, rep.p50, rep.pTop, rep.lateLast,
			verdict, mark, rep.topP, 100*r.steps[i].cpuShare())
	}
	fmt.Printf("  backlog: %d requests closed-loop on %d connections in %d chunks, %.3f s in all (limit_ms %.0f)\n",
		len(r.bulk.samples), connCount(), len(r.chunks), r.bulk.span.Seconds(), r.spec.limitMS)
}
