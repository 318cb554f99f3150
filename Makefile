# Convenience targets for the CATS reproduction. Everything is plain
# `go` under the hood; no target is required for library use.

GO ?= go

.PHONY: all build vet fmt-check lint deps-check test test-race check bench bench-smoke bench-test bench-quick fuzz-smoke serve-smoke experiments cover clean

all: build vet test

# Run catslint, the project's invariant linter, five rules: zero-alloc
# hot path (//cats:hotpath), map-iteration determinism, ctx propagation,
# wall-clock/rand hygiene, and obs label discipline. The analyzers' own regression gate — one that
# goes blind or starts overreporting on the fixture corpus fails it — is
# tier-1: `go test ./internal/lint ./cmd/catslint`.
lint:
	$(GO) run ./cmd/catslint

# gofmt gate: any file gofmt would rewrite fails the build.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Keep the shipped closure the paper's pipeline: what exists only for the
# offline experiments — the five Table III comparison classifiers, the
# co-purchase graph, the experiments themselves — the linter, and the
# crawl side (crawler, collector, the simulated platform) must not be in
# the dependency closure of what ships a model or serves one; nor the
# synthetic comment generator in the server's (cmd/cats keeps textgen:
# it generates its word2vec corpus); nor net/http or crypto/tls in the
# CLI's: cats serves nothing, and every linked package's init runs
# before main, so an HTTP stack there is start-up paid by every scoring
# job. The usual way back in is internal/obs — every pipeline package
# imports it for its counters — which is why obs is HTTP-free and the
# middleware and /metrics handler live in internal/service.
deps-check:
	@out=$$($(GO) list -deps ./cmd/catsserve ./cmd/cats | grep -E '^repro/internal/(ml/(svm|adaboost|mlp|tree|naivebayes)|graph|experiments|lint|crawler|collector|platform)$$'); \
	if [ -n "$$out" ]; then echo "catsserve/cats link offline-only packages (comparison classifiers, graph, experiments, lint, crawler, collector, platform):"; echo "$$out"; exit 1; fi
	@if $(GO) list -deps ./cmd/catsserve | grep -qx 'repro/internal/textgen'; then echo "catsserve links repro/internal/textgen (the synthetic comment generator)"; exit 1; fi
	@out=$$($(GO) list -deps ./cmd/cats | grep -xE 'net/http|crypto/tls' | tr '\n' ' '); \
	if [ -n "$$out" ]; then echo "cats links $${out% }: the CLI serves no HTTP; check internal/obs (imported by every pipeline package) for an HTTP import — HTTP code belongs in internal/service"; exit 1; fi

# The full pre-merge gate: compile, format, vet, invariant lint,
# dependency closure, and tests.
check: build fmt-check vet lint deps-check test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark, no unit tests: a fast compile-and-run
# smoke so benchmarks can't rot between PRs (CI runs this). Among them
# the two numbers the retrain window is sized by:
# service.BenchmarkDecodeFeedback/fast (an 8-entry × 40-comment body;
# stdlib is json.Unmarshal for reference) and trainer.BenchmarkFeed
# (retained-B/entry); and the one item decoder on both its inputs:
# service.BenchmarkDecodeDetect/fast beside
# dataset.BenchmarkJSONLRead/{rows,texts} (ns/comment, allocs/item);
# word2vec.BenchmarkTrain, the benchmark's model set-up's training; and
# synth.BenchmarkStream, the generator every corpus comes from
# (comments/s, allocs/comment).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench/ is its own module (`replace repro => ../`), so the root ./...
# never compiles it: build and test it against the packages as they
# stand here (unit tests plus a -quick run of every workload, ~15 s).
bench-test:
	cd bench && $(GO) test .

# A seconds-per-workload smoke of the real benchmark entry point.
bench-quick:
	bash bench/run.sh -quick

# Run each fuzz target briefly (CI does this per PR): the trie
# segmenter against the map-based reference, the word-ID analysis
# kernel against the string/map oracle, word2vec training against its
# sequential reference step (every trained vector bit for bit), the
# boosted trees' presorted fit against the per-node stable-sort search
# (snapshot bytes equal on tie-heavy data), the
# table-driven IsPunct against the unicode-package definition, the
# service's request
# decoder against arbitrary bodies (never a 5xx), its detect/explain
# decoding against json.Unmarshal (accepts iff it accepts, with the same
# items, and answers a body as its canonical re-encoding), the feedback
# intake against arbitrary bodies (never a 5xx, a rejected body never
# grows the retrain window) and against json.Unmarshal (same status,
# same accepted count, same window as the canonical re-encoding), the
# pooled request decoder behind faulting readers (short reads decode
# the same, a failed read is a 4xx that grows no window, the next
# request through the pools decodes right), the columnar container
# decoder against corrupt/truncated/hostile inputs (must always fail
# diagnosably, never panic or over-allocate; the skip decoders and the
# string payload reader agree with the building ones), the model
# loader — ReadSnapshot then DetectorFromSnapshot, JSON or columnar —
# over arbitrary bytes (never a panic, a rejection is a colfmt.Error or
# a core: error, an accepted model scores, allocation within a fixed
# multiple of the input), the dataset
# reader over arbitrary bytes, alone and with its projected read held
# to the full one (both fail or both succeed with the same items and
# texts, with and without a predicate refusing texts), and the JSONL
# line decoder against json.Unmarshal (accepts iff it accepts, as the
# same item). -fuzz takes a single target per invocation, hence the
# separate runs.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzSegmentDifferential -fuzztime=10s ./internal/tokenize
	$(GO) test -run='^$$' -fuzz=FuzzIsPunct -fuzztime=10s ./internal/tokenize
	$(GO) test -run='^$$' -fuzz=FuzzAnalyzeDifferential -fuzztime=10s ./internal/features
	$(GO) test -run='^$$' -fuzz=FuzzTrainDifferential -fuzztime=10s ./internal/word2vec
	$(GO) test -run='^$$' -fuzz=FuzzFitDifferential -fuzztime=10s ./internal/ml/gbt
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRequest -fuzztime=10s ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzDecodeDetectDifferential -fuzztime=10s ./internal/service
	$(GO) test -run='^$$' -fuzz='FuzzDecodeFeedback$$' -fuzztime=10s ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFeedbackDifferential -fuzztime=10s ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFaultingReader -fuzztime=10s ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzColfmtDecode -fuzztime=10s ./internal/colfmt
	$(GO) test -run='^$$' -fuzz=FuzzReadSnapshot -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzReader -fuzztime=10s ./internal/dataset
	$(GO) test -run='^$$' -fuzz=FuzzProjectedReadDifferential -fuzztime=10s ./internal/dataset
	$(GO) test -run='^$$' -fuzz=FuzzJSONLLineDifferential -fuzztime=10s ./internal/dataset

# End-to-end lifecycle smoke of the serving binary (CI runs this):
# train a tiny model, boot catsserve, probe /healthz + /readyz, POST a
# detect batch and one of -batch-max-size copies of one item (queued
# like any request, its repeats coalesced), assert the pipeline counters
# surface on /metrics, and require a clean SIGTERM drain; then a second
# boot checks that a lone request is not held for -batch-max-wait, that
# a non-canonical body gets the canonical one's verdicts and that
# trailing bytes are a 400.
serve-smoke:
	bash scripts/serve_smoke.sh

# Regenerate every paper table and figure at the default scales.
experiments:
	$(GO) run ./cmd/catsbench -exp all

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

clean:
	rm -f coverage.out test_output.txt bench_output.txt
