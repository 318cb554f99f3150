package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	cats "repro"
	"repro/internal/colfmt"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dispatch"
	"repro/internal/ecom"
	"repro/internal/ml/gbt"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/tokenize"
)

// The traced pass times the calls into each layer's public functions
// from here, single goroutine, workers=1. A layer's self time is its
// pass minus the passes of the layers it calls, each run over the same
// inputs; the subtraction is written next to each figure.

// mallocs reads the allocation counter the alloc metrics are deltas of.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// medianOf runs f reps times and returns the median wall time, so one
// descheduling on a shared machine does not become a layer's figure.
func medianOf(reps int, f func() error) (time.Duration, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(t0)))
	}
	return time.Duration(median(times)), nil
}

func countComments(items []ecom.Item) int {
	n := 0
	for i := range items {
		n += len(items[i].Comments)
	}
	return n
}

func perUnit(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// layerTimes are the raw pass times the self-time table is built from.
type layerTimes struct {
	items, comments    int
	colfmt, colRead    time.Duration
	jsonRead           time.Duration
	tokenize, features time.Duration // over the analyzed (unfiltered-by-sales) items
	gbt, detect        time.Duration
	// the read → detect loop driven batch by batch over the workload's
	// own format
	loopColumnar bool
	loopWall     time.Duration
	loopRead     time.Duration
	loopDetect   time.Duration
}

// probeFiles measures the storage layers on the given items: they are
// written once in both formats, then read back through colfmt.Reader
// alone, dataset.Reader over it, and dataset.Reader over JSONL.
func probeFiles(dir string, items []ecom.Item, m map[string]float64, lt *layerTimes) (colPath, jsonlPath string, err error) {
	ds := &ecom.Dataset{Items: items}
	colPath = filepath.Join(dir, "probe.catc")
	jsonlPath = filepath.Join(dir, "probe.jsonl")
	if err := dataset.WriteAllFormat(colPath, ds, dataset.FormatColumnar); err != nil {
		return "", "", err
	}
	if err := dataset.WriteAllFormat(jsonlPath, ds, dataset.FormatJSONL); err != nil {
		return "", "", err
	}
	comments := countComments(items)

	lt.colfmt, err = medianOf(5, func() error {
		f, err := os.Open(colPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r, err := colfmt.NewReader(bufio.NewReaderSize(f, 1<<16))
		if err != nil {
			return err
		}
		for {
			if _, _, err := r.Next(); err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
		}
	})
	if err != nil {
		return "", "", fmt.Errorf("colfmt probe: %w", err)
	}
	m["colfmt.block_ns_per_comment"] = perUnit(lt.colfmt, comments)

	readAll := func(path string) (time.Duration, float64, error) {
		var allocs uint64
		d, err := medianOf(5, func() error {
			a0 := mallocs()
			r, err := dataset.Open(path)
			if err != nil {
				return err
			}
			defer r.Close()
			for {
				if _, err := r.Next(); err != nil {
					if errors.Is(err, io.EOF) {
						allocs = mallocs() - a0
						return nil
					}
					return err
				}
			}
		})
		return d, float64(allocs) / float64(max(1, len(items))), err
	}
	var colAllocs, jsonAllocs float64
	if lt.colRead, colAllocs, err = readAll(colPath); err != nil {
		return "", "", fmt.Errorf("dataset columnar probe: %w", err)
	}
	// self = dataset's pass minus the colfmt block reads inside it
	m["dataset.col_read_ns_per_comment"] = perUnit(lt.colRead-lt.colfmt, comments)
	m["dataset.col_allocs_per_item"] = colAllocs
	if lt.jsonRead, jsonAllocs, err = readAll(jsonlPath); err != nil {
		return "", "", fmt.Errorf("dataset JSONL probe: %w", err)
	}
	m["dataset.jsonl_read_ns_per_comment"] = perUnit(lt.jsonRead, comments)
	m["dataset.jsonl_allocs_per_item"] = jsonAllocs
	return colPath, jsonlPath, nil
}

// probePipeline measures tokenize, features, gbt and core on the items,
// each through its public entry point.
func probePipeline(det *core.Detector, items []ecom.Item, m map[string]float64, lt *layerTimes) error {
	ctx := context.Background()
	ex := det.Extractor()
	seg := ex.Segmenter()
	minSales := det.Config().MinSalesVolume
	var analyzed []*ecom.Item // what the fused path hands to the extractor
	for i := range items {
		if items[i].SalesVolume >= minSales {
			analyzed = append(analyzed, &items[i])
		}
	}
	analyzedComments := 0
	for _, it := range analyzed {
		analyzedComments += len(it.Comments)
	}
	lt.items, lt.comments = len(items), countComments(items)

	var toks []tokenize.Token
	var err error
	lt.tokenize, err = medianOf(3, func() error {
		for _, it := range analyzed {
			for k := range it.Comments {
				toks = seg.AppendTokens(toks[:0], it.Comments[k].Content)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["tokenize.segment_ns_per_comment"] = perUnit(lt.tokenize, analyzedComments)

	var scored [][]float64 // vectors of items with a positive signal: what gbt sees
	var vecAllocs uint64
	lt.features, _ = medianOf(3, func() error {
		scored = scored[:0]
		a0 := mallocs()
		for _, it := range analyzed {
			if v, positive := ex.VectorSignal(it); positive {
				scored = append(scored, v)
			}
		}
		vecAllocs = mallocs() - a0
		return nil
	})
	// self = the extractor's pass minus the segmentation inside it
	m["features.vector_ns_per_comment"] = perUnit(lt.features-lt.tokenize, analyzedComments)
	m["features.allocs_per_item"] = float64(vecAllocs) / float64(max(1, len(analyzed)))

	g, ok := det.Classifier().(*gbt.Classifier)
	if !ok {
		return fmt.Errorf("bench: classifier %T is not the boosted-tree model", det.Classifier())
	}
	out := make([]float64, 1024)
	lt.gbt, _ = medianOf(5, func() error {
		for lo := 0; lo < len(scored); lo += 1024 {
			hi := min(lo+1024, len(scored))
			g.PredictProbaBatch(scored[lo:hi], out[:hi-lo])
		}
		return nil
	})
	m["gbt.predict_ns_per_item"] = perUnit(lt.gbt, len(scored))

	filtered := 0
	var detAllocs uint64
	var passes int64
	lt.detect, err = medianOf(3, func() error {
		filtered = 0
		p0 := seg.Segmentations()
		a0 := mallocs()
		for lo := 0; lo < len(items); lo += 1024 {
			hi := min(lo+1024, len(items))
			dets, _, err := det.DetectWithFeatures(ctx, items[lo:hi], 1)
			if err != nil {
				return err
			}
			for i := range dets {
				if dets[i].Filtered {
					filtered++
				}
			}
		}
		detAllocs = mallocs() - a0
		passes = seg.Segmentations() - p0
		return nil
	})
	if err != nil {
		return err
	}
	// self = the detector's pass minus the extractor and classifier inside it
	m["core.detect_ns_per_item"] = perUnit(lt.detect-lt.features-lt.gbt, len(items))
	m["core.detect_allocs_per_item"] = float64(detAllocs) / float64(max(1, len(items)))
	m["core.filtered_share"] = float64(filtered) / float64(max(1, len(items)))
	m["tokenize.passes_per_comment"] = float64(passes) / float64(max(1, lt.comments))
	return nil
}

// probeLoop drives read → detect batch by batch from the benchmark, one
// span per call, the way DetectStream does inside the program. What the
// loop's wall holds beyond the two layers is stream.residual_ns_per_item.
func probeLoop(det *core.Detector, path string, columnar bool, tr *tracer, m map[string]float64, lt *layerTimes) error {
	lt.loopColumnar = columnar
	r, err := dataset.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	ctx := context.Background()
	root := tr.begin("stream.loop", 0, 0)
	t0 := time.Now()
	batch := make([]ecom.Item, 0, 1024)
	n, req := 0, 0
	for done := false; !done; {
		req++
		batch = batch[:0]
		sp := tr.begin("dataset.read", root, req)
		tr0 := time.Now()
		for len(batch) < cap(batch) {
			it, err := r.Next()
			if errors.Is(err, io.EOF) {
				done = true
				break
			}
			if err != nil {
				return err
			}
			batch = append(batch, *it)
		}
		lt.loopRead += time.Since(tr0)
		tr.end(sp)
		if len(batch) == 0 {
			break
		}
		sp = tr.begin("core.detect", root, req)
		td0 := time.Now()
		if _, _, err := det.DetectWithFeatures(ctx, batch, 1); err != nil {
			return err
		}
		lt.loopDetect += time.Since(td0)
		tr.end(sp)
		n += len(batch)
	}
	lt.loopWall = time.Since(t0)
	tr.end(root)
	m["stream.residual_ns_per_item"] = perUnit(lt.loopWall-lt.loopRead-lt.loopDetect, n)
	return nil
}

// probeSnapshots times loading the model the way every program does:
// ReadSnapshot then DetectorFromSnapshot, for both codecs.
func probeSnapshots(dir string, fx *fixture, m map[string]float64) error {
	jsonPath := filepath.Join(dir, "probe-model.json")
	if err := fx.oracle[tenantDefault].SaveFileFormat(jsonPath, fx.vocab, cats.FormatJSON); err != nil {
		return err
	}
	load := func(path string) func() error {
		return func() error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			snap, err := core.ReadSnapshot(f)
			if err != nil {
				return err
			}
			_, _, err = core.DetectorFromSnapshot(snap)
			return err
		}
	}
	col, err := medianOf(5, load(fx.modelPath[tenantDefault]))
	if err != nil {
		return err
	}
	js, err := medianOf(3, load(jsonPath))
	if err != nil {
		return err
	}
	m["core.snapshot_load_ms"] = ms(col)
	m["core.snapshot_load_json_ms"] = ms(js)
	return nil
}

// probeServing measures registry, dispatch and service in-process on
// the given detect bodies: JSON decode into service.DetectRequest, the
// whole handler with batching off, the encode of its response, a lone
// Dispatcher.Submit against a direct call on the same items, and an
// Acquire/Release pair. The handler pass runs with spans and without,
// which is where trace.overhead_share comes from. It returns the
// handler's median in ms, which net.residual_ms_p50 is taken against.
func probeServing(fx *fixture, bodies []op, tr *tracer, m map[string]float64) (handlerP50MS float64, err error) {
	ctx := context.Background()
	reg := registry.New(registry.Options{Workers: 1})
	defer reg.Close()
	for tenant, path := range fx.modelPath {
		if _, err := reg.LoadFile(ctx, tenant, path); err != nil {
			return 0, err
		}
	}
	srv := service.NewWithRegistry(reg, service.Options{
		DefaultTenant: tenantDefault, Workers: 1, Registry: obs.NewRegistry(),
	})
	handler := srv.Handler()
	det := fx.oracle[tenantDefault].Detector()

	var decodeNS, encodeNS, handlerNS, coreNS, decodeAllocs float64
	var handlerMS []float64
	pass := func(tr *tracer) (time.Duration, error) {
		decodeNS, encodeNS, handlerNS, coreNS, decodeAllocs = 0, 0, 0, 0, 0
		handlerMS = handlerMS[:0]
		t0 := time.Now()
		for i := range bodies {
			o := &bodies[i]
			root := tr.begin("request", 0, i+1)

			sp := tr.begin("service.decode", root, i+1)
			a0 := mallocs()
			t := time.Now()
			var req service.DetectRequest
			if err := json.NewDecoder(bytes.NewReader(o.body)).Decode(&req); err != nil {
				return 0, err
			}
			decodeNS += float64(time.Since(t))
			decodeAllocs += float64(mallocs() - a0)
			tr.end(sp)

			sp = tr.begin("service.handler", root, i+1)
			rec := httptest.NewRecorder()
			hreq := httptest.NewRequest("POST", o.path, bytes.NewReader(o.body))
			t = time.Now()
			handler.ServeHTTP(rec, hreq)
			d := time.Since(t)
			tr.end(sp)
			if rec.Code != 200 {
				return 0, fmt.Errorf("in-process handler answered %d: %.120s", rec.Code, rec.Body.Bytes())
			}
			handlerNS += float64(d)
			handlerMS = append(handlerMS, ms(d))

			sp = tr.begin("core.detect", root, i+1)
			t = time.Now()
			dets, _, err := det.DetectWithFeatures(ctx, req.Items, 1)
			if err != nil {
				return 0, err
			}
			coreNS += float64(time.Since(t))
			tr.end(sp)

			resp := service.DetectResponse{Detections: make([]service.DetectionDTO, len(dets)), Tenant: o.tenant}
			for k, dd := range dets {
				resp.Detections[k] = service.DetectionDTO{ItemID: dd.ItemID, Score: dd.Score, IsFraud: dd.IsFraud, Filtered: dd.Filtered}
			}
			sp = tr.begin("service.encode", root, i+1)
			t = time.Now()
			if err := json.NewEncoder(io.Discard).Encode(&resp); err != nil {
				return 0, err
			}
			encodeNS += float64(time.Since(t))
			tr.end(sp)
			tr.end(root)
		}
		return time.Since(t0), nil
	}
	// Untraced, traced, untraced: the traced pass is compared with the
	// mean of its neighbours, so warm-up and drift cancel.
	before, err := pass(nil)
	if err != nil {
		return 0, err
	}
	traced, err := pass(tr)
	if err != nil {
		return 0, err
	}
	after, err := pass(nil)
	if err != nil {
		return 0, err
	}
	plain := (before + after) / 2
	n := float64(max(1, len(bodies)))
	m["service.decode_ns_per_req"] = decodeNS / n
	m["service.decode_allocs_per_req"] = decodeAllocs / n
	m["service.encode_ns_per_req"] = encodeNS / n
	// self = the handler minus the decode, detect and encode inside it
	m["service.handler_ns_per_req"] = (handlerNS - decodeNS - coreNS - encodeNS) / n
	m["trace.overhead_share"] = float64(traced-plain) / float64(max(1, plain))
	handlerP50MS = median(handlerMS)

	// A lone Submit waits out the batching window; the direct call on
	// the same items does not.
	d := dispatch.New(det, dispatch.Options{})
	defer d.Close()
	var waits []float64
	for i := range bodies[:min(len(bodies), 40)] {
		var req service.DetectRequest
		if err := json.Unmarshal(bodies[i].body, &req); err != nil {
			return 0, err
		}
		t := time.Now()
		if _, err := d.Submit(ctx, req.Items); err != nil {
			return 0, err
		}
		viaQueue := time.Since(t)
		t = time.Now()
		if _, _, err := det.DetectWithFeatures(ctx, req.Items, 0); err != nil {
			return 0, err
		}
		waits = append(waits, ms(viaQueue-time.Since(t)))
	}
	m["dispatch.submit_wait_ms_p50"] = median(waits)

	tenant := reg.Tenant(tenantDefault)
	const leases = 200000
	t := time.Now()
	for i := 0; i < leases; i++ {
		tenant.Acquire().Release()
	}
	m["registry.acquire_ns"] = float64(time.Since(t)) / leases
	return handlerP50MS, nil
}

// detectBodies picks the first n detect ops of the inputs.
func detectBodies(in *serveInputs, n int) []op {
	var out []op
	take := func(ops []op) {
		for i := range ops {
			if len(out) < n && ops[i].kind == opDetect {
				out = append(out, ops[i])
			}
		}
	}
	take(in.bulk)
	for _, s := range in.steps {
		take(s)
	}
	return out
}

// printLayerTable shows each layer's self time as a share of the traced
// read→detect wall; with the residual the rows sum to that wall.
func printLayerTable(lt *layerTimes) {
	if lt.loopWall <= 0 {
		return
	}
	// Scale the isolated passes to the loop's own read and detect times
	// so the rows partition the loop's wall exactly.
	detectScale := float64(lt.loopDetect) / float64(max(1, lt.detect))
	read, inner := lt.jsonRead, time.Duration(0)
	if lt.loopColumnar {
		read, inner = lt.colRead, lt.colfmt
	}
	readScale := float64(lt.loopRead) / float64(max(1, read))
	rows := []struct {
		name string
		self float64
	}{
		{"colfmt", float64(inner) * readScale},
		{"dataset", float64(read-inner) * readScale},
		{"tokenize", float64(lt.tokenize) * detectScale},
		{"features", float64(lt.features-lt.tokenize) * detectScale},
		{"gbt", float64(lt.gbt) * detectScale},
		{"core", float64(lt.detect-lt.features-lt.gbt) * detectScale},
		{"residual", float64(lt.loopWall - lt.loopRead - lt.loopDetect)},
	}
	var sum float64
	fmt.Printf("  layer self times over the traced read→detect loop (%d items, %d comments, wall %.3f ms):\n",
		lt.items, lt.comments, ms(lt.loopWall))
	for _, r := range rows {
		sum += r.self
		fmt.Printf("    %-9s %10.3f ms  %5.1f%%\n", r.name, r.self/1e6, 100*r.self/float64(lt.loopWall))
	}
	fmt.Printf("    %-9s %10.3f ms  %5.1f%% of the traced wall\n", "sum", sum/1e6, 100*sum/float64(lt.loopWall))
}
