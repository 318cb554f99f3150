package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ecom"
	"repro/internal/registry"
	"repro/internal/service"
)

// scoreTolerance is how far a served score may sit from the reference.
// JSON carries float64 exactly, so this only absorbs nothing; it is the
// issue's stated margin.
const scoreTolerance = 1e-9

// verifier is the correctness oracle for the serve workloads: every
// response is compared with Detector.DetectWithFeatures run in-process
// on the snapshot of the tenant the request addressed. It runs after
// the timed phases, on the stored response bytes, so the reference
// computation never competes with the server for the CPU.
type verifier struct {
	fx    *fixture
	items []ecom.Item
	// want and vec hold the reference per tenant per item index, filled
	// for the indexes some sent request carried.
	want map[string][]core.Detection
	vec  map[string][][]float64
	have map[string][]bool

	lastGen       map[string]uint64 // "conn/tenant" → last model generation seen
	lastReloadGen uint64
	problems      []string // first few mismatches, for the report
}

func newVerifier(fx *fixture, items []ecom.Item) *verifier {
	v := &verifier{
		fx: fx, items: items,
		want:    map[string][]core.Detection{},
		vec:     map[string][][]float64{},
		have:    map[string][]bool{},
		lastGen: map[string]uint64{},
	}
	for tenant := range fx.oracle {
		v.want[tenant] = make([]core.Detection, len(items))
		v.vec[tenant] = make([][]float64, len(items))
		v.have[tenant] = make([]bool, len(items))
	}
	return v
}

func (v *verifier) problem(format string, args ...any) {
	if len(v.problems) < 8 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// prepare computes the reference verdicts for every item the given
// samples carried, batched per tenant.
func (v *verifier) prepare(phases ...[]sample) error {
	need := map[string][]int32{}
	for _, samples := range phases {
		for i := range samples {
			s := &samples[i]
			if !s.sent || (s.op.kind != opDetect && s.op.kind != opExplain) {
				continue
			}
			for _, k := range s.op.items {
				if !v.have[s.op.tenant][k] {
					v.have[s.op.tenant][k] = true
					need[s.op.tenant] = append(need[s.op.tenant], k)
				}
			}
		}
	}
	for tenant, idx := range need {
		det := v.fx.oracle[tenant].Detector()
		batch := make([]ecom.Item, len(idx))
		for i, k := range idx {
			batch[i] = v.items[k]
		}
		dets, X, err := det.DetectWithFeatures(context.Background(), batch, 0)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", tenant, err)
		}
		for i, k := range idx {
			v.want[tenant][k] = dets[i]
			v.vec[tenant][k] = X[i]
		}
	}
	return nil
}

func sameDetection(got service.DetectionDTO, want core.Detection) bool {
	return got.ItemID == want.ItemID && got.IsFraud == want.IsFraud && got.Filtered == want.Filtered &&
		math.Abs(got.Score-want.Score) <= scoreTolerance
}

// check marks each sent sample ok or not, in connection order so model
// generations can be required to be monotone per connection. It returns
// how many operations were attempted and how many failed.
func (v *verifier) check(phase string, samples []sample) (attempted, failed int) {
	order := make([]int, 0, len(samples))
	for i := range samples {
		if samples[i].sent {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return samples[order[a]].start < samples[order[b]].start })
	for _, i := range order {
		s := &samples[i]
		attempted++
		s.ok = v.checkOne(phase, s)
		if !s.ok {
			failed++
		}
	}
	return attempted, failed
}

func (v *verifier) checkOne(phase string, s *sample) bool {
	o := s.op
	if s.err != nil {
		v.problem("%s %s: transport: %v", phase, o.kind, s.err)
		return false
	}
	if s.code != 200 {
		v.problem("%s %s %s: HTTP %d: %.120s", phase, o.kind, o.path, s.code, s.resp)
		return false
	}
	switch o.kind {
	case opDetect:
		var resp service.DetectResponse
		if err := json.Unmarshal(s.resp, &resp); err != nil {
			v.problem("%s detect: bad response JSON: %v", phase, err)
			return false
		}
		if resp.Tenant != o.tenant || len(resp.Detections) != len(o.items) {
			v.problem("%s detect: tenant %q (want %q), %d detections (want %d)",
				phase, resp.Tenant, o.tenant, len(resp.Detections), len(o.items))
			return false
		}
		key := fmt.Sprintf("%d/%s", s.conn, o.tenant)
		if resp.ModelGeneration < v.lastGen[key] {
			v.problem("%s detect: generation went back from %d to %d on connection %d",
				phase, v.lastGen[key], resp.ModelGeneration, s.conn)
			return false
		}
		v.lastGen[key] = resp.ModelGeneration
		for j, k := range o.items {
			if sameDetection(resp.Detections[j], v.want[o.tenant][k]) {
				s.correctItems++
			} else {
				v.problem("%s detect %s: got %+v want %+v", phase, o.tenant, resp.Detections[j], v.want[o.tenant][k])
			}
		}
		return s.correctItems == len(o.items)
	case opExplain:
		var resp service.ExplainResponse
		if err := json.Unmarshal(s.resp, &resp); err != nil {
			v.problem("%s explain: bad response JSON: %v", phase, err)
			return false
		}
		k := o.items[0]
		want := v.want[o.tenant][k]
		vec := v.vec[o.tenant][k]
		if vec == nil {
			// Sales-filtered items skip extraction in the fused path; the
			// endpoint computes the vector on demand, so the oracle does too.
			vec = v.fx.oracle[o.tenant].Features(&v.items[k])
		}
		if resp.Tenant != o.tenant || !sameDetection(resp.Detection, want) || len(resp.Vector) != len(vec) || len(resp.Features) == 0 {
			v.problem("%s explain: got %+v want %+v", phase, resp.Detection, want)
			return false
		}
		for j := range vec {
			if math.Abs(resp.Vector[j]-vec[j]) > scoreTolerance {
				v.problem("%s explain: feature %d is %g, want %g", phase, j, resp.Vector[j], vec[j])
				return false
			}
		}
		s.correctItems = 1
		return true
	case opFeedback:
		var resp service.FeedbackResponse
		if err := json.Unmarshal(s.resp, &resp); err != nil || resp.Accepted != len(o.items) {
			v.problem("%s feedback: accepted %d of %d (%v)", phase, resp.Accepted, len(o.items), err)
			return false
		}
		return true
	case opReload:
		var info registry.Info
		if err := json.Unmarshal(s.resp, &info); err != nil || info.Tenant != o.tenant || info.Generation <= v.lastReloadGen {
			v.problem("%s reload: %+v after generation %d (%v)", phase, info, v.lastReloadGen, err)
			return false
		}
		v.lastReloadGen = info.Generation
		return true
	default: // retrain: any 200 is a completed cycle
		return true
	}
}

// tsvHeader is the first line cats writes.
const tsvHeader = "item_id\tscore\tfraud\tfiltered"

// expectedTSV runs the in-process reference over a corpus file and
// returns the rows the CLI must print, formatted as it formats them
// (score to the 4 printed decimals).
func expectedTSV(fx *fixture, corpusPath string) ([]string, error) {
	r, err := dataset.Open(corpusPath)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	sys := fx.oracle[tenantDefault]
	var rows []string
	batch := make([]ecom.Item, 0, 1024)
	flush := func() error {
		dets, err := sys.Detect(batch)
		if err != nil {
			return err
		}
		for _, d := range dets {
			rows = append(rows, fmt.Sprintf("%s\t%.4f\t%v\t%v", d.ItemID, d.Score, d.IsFraud, d.Filtered))
		}
		batch = batch[:0]
		return nil
	}
	for {
		it, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		batch = append(batch, *it)
		if len(batch) == cap(batch) {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return rows, nil
}

// checkTSV compares a detections file with the expected rows and
// returns how many rows were wrong or missing.
func checkTSV(path string, want []string) (failed int, firstProblem string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	note := func(format string, args ...any) {
		if firstProblem == "" {
			firstProblem = fmt.Sprintf(format, args...)
		}
	}
	if !sc.Scan() || sc.Text() != tsvHeader {
		note("missing header line")
	}
	i := 0
	for ; sc.Scan(); i++ {
		if i >= len(want) {
			failed++
			note("extra row %q", sc.Text())
			continue
		}
		if sc.Text() != want[i] {
			failed++
			note("row %d is %q, want %q", i, sc.Text(), want[i])
		}
	}
	if err := sc.Err(); err != nil {
		return 0, "", err
	}
	if i < len(want) {
		failed += len(want) - i
		note("%d rows missing", len(want)-i)
	}
	return failed, firstProblem, nil
}
