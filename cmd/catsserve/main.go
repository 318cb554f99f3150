// Command catsserve serves trained CATS models over HTTP (see
// repro/internal/service for the API) in production shape: an
// http.Server with sane timeouts, Prometheus metrics on /metrics,
// liveness and readiness probes on /healthz and /readyz, optional
// pprof on a side listener, and graceful shutdown on SIGINT/SIGTERM
// (readiness flips to 503, in-flight requests drain, then the process
// exits 0 after logging how many items it served).
//
// The process is multi-tenant: it fronts a model registry
// (repro/internal/registry) of named tenants — one model per platform,
// matching the paper's cross-platform deployment — each hot-reloadable
// with zero downtime. Models come from three places, combinable:
//
//	-model model.json          one model as the "default" tenant (the
//	                           classic single-tenant invocation)
//	-tenant name=model.json    one named tenant; repeatable
//	-models dir/               every *.json or *.catc in dir becomes a tenant
//	                           named after its base name
//
// SIGHUP re-scans: every tenant's snapshot source is re-read through
// the load → golden-probe validation → atomic swap sequence, and new
// snapshot files in the -models directory become new tenants. A snapshot
// that fails validation is logged and skipped; the tenant keeps
// serving its old model. The same reload is available per tenant over
// HTTP via POST /admin/reload when -admin-token is set.
//
// Detection traffic is served through each tenant's own adaptive
// batching dispatcher by default (DESIGN.md §11): concurrent requests
// coalesce into fused scoring batches, identical in-flight items score
// once, and when a tenant's admission queue saturates its excess
// requests are shed with 503 + Retry-After — that tenant's, nobody
// else's. The -batch-* and -queue-depth flags tune it;
// -tenant-max-concurrency caps concurrent scoring batches per tenant;
// -batch=false restores one-scoring-call-per-request.
//
// Usage:
//
//	catsserve -model model.json [-addr :8080] [-pprof-addr 127.0.0.1:6060]
//	          [-shutdown-timeout 15s] [-batch] [-batch-max-size 256]
//	          [-batch-max-wait 2ms] [-queue-depth 4096] [-retry-after 1s]
//	catsserve -models snapshots/ -admin-token $TOKEN [-probes probes.json]
//	          [-tenant-max-concurrency 4] [-default-tenant taobao]
//	catsserve -model model.json -retrain-interval 10m [-retrain-window 2048]
//	          [-retrain-min-samples 100] [-retrain-cooldown 1h]
//	          [-retrain-min-f1-gain 0.005] [-retrain-min-precision 0.8]
//
// With -retrain-interval set, the server closes the drift loop
// (DESIGN.md §15): POST /v1/feedback accepts labeled outcomes into a
// per-tenant sliding window, and every interval a background
// champion/challenger cycle retrains on the window, evaluates both
// models on a held-out split, and promotes the challenger through the
// registry's golden-probe gate only on a strict holdout win. GET
// /admin/trainer reports loop state; POST /admin/retrain forces a
// cycle.
//
// Models are produced by `cats -train ... -save-model model.json` or
// the library's System.SaveFile (atomic: a crash mid-save never leaves
// a truncated snapshot for a reload to trip on). See README "Operating
// multi-tenant catsserve".
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/dispatch"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/trainer"
)

// wallClock adapts the real clock to the trainer's injected-clock
// interface. It lives here — in package main — because everything under
// internal/trainer is deterministic by decree (catslint no-wallclock-rand);
// the wall clock enters the system only at the operational edge.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) NewTicker(d time.Duration) trainer.Ticker {
	return wallTicker{t: time.NewTicker(d)}
}

type wallTicker struct{ t *time.Ticker }

func (w wallTicker) C() <-chan time.Time { return w.t.C }
func (w wallTicker) Stop()               { w.t.Stop() }

// tenantFlag is one -tenant name=path mapping; the flag repeats.
type tenantFlag struct{ name, path string }

type tenantFlags []tenantFlag

func (t *tenantFlags) String() string {
	parts := make([]string, len(*t))
	for i, tf := range *t {
		parts[i] = tf.name + "=" + tf.path
	}
	return strings.Join(parts, ",")
}

func (t *tenantFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*t = append(*t, tenantFlag{name: name, path: path})
	return nil
}

// probeFile is the -probes JSON shape: the golden probe set every
// candidate model must pass before a (re)load publishes it.
type probeFile struct {
	Probes        []registry.Probe `json:"probes"`
	MaxMismatches int              `json:"max_mismatches"`
}

func main() {
	var tenants tenantFlags
	var (
		modelPath = flag.String("model", "", "model snapshot (JSON or columnar), served as the \"default\" tenant")
		modelsDir = flag.String("models", "",
			"directory of trained model snapshots; each *.json or *.catc becomes a tenant named after its base name")
		defaultTenant = flag.String("default-tenant", "",
			"tenant bare /v1/* requests route to (default: \"default\", or the sole tenant when exactly one is loaded)")
		adminToken = flag.String("admin-token", "",
			"bearer token for /admin/reload and /admin/tenants; empty (and no CATS_ADMIN_TOKEN env) disables them")
		probesPath = flag.String("probes", "",
			"golden probe set JSON ({\"probes\": [...], \"max_mismatches\": N}); candidate models failing it are rejected at (re)load")
		addr      = flag.String("addr", ":8080", "listen address")
		pprofAddr = flag.String("pprof-addr", "",
			"optional side listener for net/http/pprof (e.g. 127.0.0.1:6060); empty disables")
		shutdownTimeout = flag.Duration("shutdown-timeout", 15*time.Second,
			"how long to drain in-flight requests on SIGINT/SIGTERM before giving up")
		batch = flag.Bool("batch", true,
			"coalesce concurrent detect requests into fused scoring batches (per tenant)")
		batchMaxSize = flag.Int("batch-max-size", 256,
			"flush a batch once this many items are queued")
		batchMaxWait = flag.Duration("batch-max-wait", 2*time.Millisecond,
			"how long requests arriving under load collect before they are flushed anyway; "+
				"a request that finds the scorer idle for this long is dispatched at once and never waits")
		queueDepth = flag.Int("queue-depth", 4096,
			"bound on queued items per tenant; requests beyond it are shed with 503")
		retryAfter = flag.Duration("retry-after", time.Second,
			"Retry-After hint sent with shed (503) responses")
		tenantMaxConcurrency = flag.Int("tenant-max-concurrency", 0,
			"cap on concurrently-scoring batches per tenant (admission quota); 0 means unlimited")
		retrainInterval = flag.Duration("retrain-interval", 0,
			"champion/challenger retrain cadence; 0 disables the drift loop (and /v1/feedback)")
		retrainWindow = flag.Int("retrain-window", 0,
			"labeled-feedback sliding window per tenant, in entries (default 2048); an entry holds a copy of "+
				"its item's comment text plus ~100 bytes, not its JSON: see cats_trainer_window_bytes")
		retrainMinSamples = flag.Int("retrain-min-samples", 0,
			"smallest feedback window that triggers a retrain (default 100)")
		retrainCooldown = flag.Duration("retrain-cooldown", 0,
			"minimum time between promotions per tenant; 0 disables the guard")
		retrainMinF1Gain = flag.Float64("retrain-min-f1-gain", 0,
			"holdout-F1 margin a challenger must beat the champion by; 0 means any strict win, negative forces promotion (smoke tests)")
		retrainMinPrecision = flag.Float64("retrain-min-precision", 0,
			"absolute holdout precision floor for a winning challenger; 0 disables")
		retrainMinRecall = flag.Float64("retrain-min-recall", 0,
			"absolute holdout recall floor for a winning challenger; 0 disables")
	)
	flag.Var(&tenants, "tenant", "tenant model as name=path; repeatable")
	flag.Parse()
	if *modelPath == "" && *modelsDir == "" && len(tenants) == 0 {
		fmt.Fprintln(os.Stderr, "catsserve: at least one of -model, -models, -tenant is required")
		os.Exit(2)
	}

	regOpts := registry.Options{}
	if *batch {
		regOpts.Batching = &dispatch.Options{
			MaxBatch:             *batchMaxSize,
			MaxWait:              *batchMaxWait,
			MaxQueue:             *queueDepth,
			RetryAfter:           *retryAfter,
			MaxConcurrentBatches: *tenantMaxConcurrency,
		}
	}
	if *probesPath != "" {
		ps, err := readProbes(*probesPath)
		if err != nil {
			log.Fatalf("catsserve: %v", err)
		}
		regOpts.Probes = ps
		log.Printf("catsserve: golden probe set loaded from %s (%d probes, %d mismatches allowed)",
			*probesPath, len(ps.Probes), ps.MaxMismatches)
	}
	reg := registry.New(regOpts)

	// Boot loads are fatal on failure: starting with a bad model is an
	// operator error, unlike a bad reload later (which is rejected and
	// logged while the old model keeps serving).
	ctx := context.Background()
	if *modelPath != "" {
		info, err := reg.LoadFile(ctx, service.DefaultTenant, *modelPath)
		if err != nil {
			log.Fatalf("catsserve: %v", err)
		}
		log.Printf("catsserve: tenant %s: loaded %s (generation %d)", info.Tenant, info.Version, info.Generation)
	}
	for _, tf := range tenants {
		info, err := reg.LoadFile(ctx, tf.name, tf.path)
		if err != nil {
			log.Fatalf("catsserve: %v", err)
		}
		log.Printf("catsserve: tenant %s: loaded %s (generation %d)", info.Tenant, info.Version, info.Generation)
	}
	if *modelsDir != "" {
		if err := scanModels(ctx, reg, *modelsDir, true); err != nil {
			log.Fatalf("catsserve: %v", err)
		}
	}

	defTenant := *defaultTenant
	if defTenant == "" {
		defTenant = service.DefaultTenant
		if names := reg.Names(); len(names) == 1 {
			defTenant = names[0]
		}
	}
	if reg.Tenant(defTenant) == nil {
		log.Printf("catsserve: warning: default tenant %q has no model; bare /v1/* requests will 404 (tenant-scoped /t/<name>/v1/* routes still work)", defTenant)
	}

	token := *adminToken
	if token == "" {
		token = os.Getenv("CATS_ADMIN_TOKEN")
	}

	// The drift loop: when -retrain-interval is set, labeled outcomes
	// accepted on /v1/feedback accumulate per tenant and a background
	// champion/challenger cycle retrains on the window, gates on a
	// holdout, and promotes only on a strict win (DESIGN.md §15).
	var tr *trainer.Trainer
	if *retrainInterval > 0 {
		tr = trainer.New(reg, wallClock{}, trainer.Config{
			Interval:     *retrainInterval,
			Window:       *retrainWindow,
			MinSamples:   *retrainMinSamples,
			Cooldown:     *retrainCooldown,
			MinF1Gain:    *retrainMinF1Gain,
			MinPrecision: *retrainMinPrecision,
			MinRecall:    *retrainMinRecall,
			OnCycle: func(d trainer.Decision) {
				switch d.Outcome {
				case trainer.OutcomePromoted:
					log.Printf("catsserve: trainer: tenant %s: promoted %s (generation %d, F1 %+.4f over %s)",
						d.Tenant, d.ChallengerVersion, d.PromotedGen, d.F1Delta, d.ChampionVersion)
				case trainer.OutcomeLost, trainer.OutcomeProbeRejected, trainer.OutcomeError:
					log.Printf("catsserve: trainer: tenant %s: %s: %s", d.Tenant, d.Outcome, d.Reason)
				}
			},
		})
		tr.Start()
		log.Printf("catsserve: drift loop on (interval %s, window %d, min-samples %d, cooldown %s, min-f1-gain %g)",
			*retrainInterval, tr.Config().Window, tr.Config().MinSamples, *retrainCooldown, *retrainMinF1Gain)
	}

	srv := service.NewWithRegistry(reg, service.Options{
		DefaultTenant: defTenant,
		AdminToken:    token,
		Trainer:       tr,
	})

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Slow-client protection: bound header reads, whole-request
		// reads, and response writes. The write timeout leaves room for
		// a full 10k-item batch detect.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	// SIGHUP re-scan: reload every tenant from its snapshot source and
	// pick up new files in the -models directory. Failures are logged
	// and the affected tenant keeps serving its old model — reload is
	// never allowed to take a live tenant down.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			log.Printf("catsserve: SIGHUP: re-scanning model sources")
			if err := reg.ReloadAll(context.Background()); err != nil {
				log.Printf("catsserve: reload: %v (tenant keeps previous model)", err)
			}
			if *modelsDir != "" {
				if err := scanModels(context.Background(), reg, *modelsDir, false); err != nil {
					log.Printf("catsserve: re-scan %s: %v", *modelsDir, err)
				}
			}
			for _, info := range reg.Infos() {
				log.Printf("catsserve: tenant %s: serving %s (generation %d)", info.Tenant, info.Version, info.Generation)
			}
		}
	}()

	// Shutdown sequencing: on the first SIGINT/SIGTERM, flip /readyz to
	// 503 (load balancers stop routing here), then drain in-flight
	// requests up to -shutdown-timeout. A second signal kills the
	// process the default way (stop() reinstalls default handling).
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownErr := make(chan error, 1)
	go func() {
		<-sigCtx.Done()
		stop()
		log.Printf("catsserve: shutdown signal received; draining (timeout %s)", *shutdownTimeout)
		srv.SetReady(false)
		drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		shutdownErr <- httpSrv.Shutdown(drainCtx)
	}()

	if bt := regOpts.Batching; bt != nil {
		log.Printf("catsserve: batching on (max-size %d, max-wait %s, queue-depth %d, retry-after %s, tenant-max-concurrency %d)",
			bt.MaxBatch, bt.MaxWait, bt.MaxQueue, bt.RetryAfter, bt.MaxConcurrentBatches)
	} else {
		log.Printf("catsserve: batching off; each request scores its own batch")
	}
	log.Printf("catsserve: listening on %s (tenants %v, default %q, admin API %v, pprof %q)",
		*addr, reg.Names(), defTenant, token != "", *pprofAddr)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("catsserve: %v", err)
	}
	if err := <-shutdownErr; err != nil {
		log.Printf("catsserve: drain incomplete: %v", err)
	}
	// In-flight HTTP requests are drained. Stop the retrain loop first —
	// a promotion mid-teardown would publish into a registry being
	// retired — then retire every tenant's model so the batchers flush
	// whatever they still hold and every admitted waiter gets its
	// verdict.
	if tr != nil {
		tr.Close()
	}
	srv.Close()
	log.Printf("catsserve: exiting cleanly; served %d items", srv.ItemsServed())
}

// scanModels loads every *.json and *.catc (columnar) snapshot in dir
// as a tenant named after its base name; the registry sniffs the actual
// format from the file's magic bytes. With fatal=false (SIGHUP re-scan) only tenants not yet
// registered are loaded — existing ones were just refreshed by
// ReloadAll — and individual failures are logged, not returned.
func scanModels(ctx context.Context, reg *registry.Registry, dir string, fatal bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	loaded := 0
	for _, e := range entries {
		name := e.Name()
		ext := ""
		switch {
		case strings.HasSuffix(name, ".json"):
			ext = ".json"
		case strings.HasSuffix(name, ".catc"):
			ext = ".catc"
		}
		if e.IsDir() || ext == "" {
			continue
		}
		tenant := strings.TrimSuffix(name, ext)
		if !fatal {
			if t := reg.Tenant(tenant); t != nil && t.Source() != "" {
				continue
			}
		}
		info, err := reg.LoadFile(ctx, tenant, filepath.Join(dir, name))
		if err != nil {
			if fatal {
				return err
			}
			log.Printf("catsserve: %v (tenant skipped)", err)
			continue
		}
		loaded++
		log.Printf("catsserve: tenant %s: loaded %s (generation %d)", info.Tenant, info.Version, info.Generation)
	}
	if fatal && loaded == 0 {
		return fmt.Errorf("no *.json or *.catc models found in %s", dir)
	}
	return nil
}

// readProbes parses a -probes JSON file.
func readProbes(path string) (registry.ProbeSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return registry.ProbeSet{}, err
	}
	defer f.Close()
	var pf probeFile
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pf); err != nil {
		return registry.ProbeSet{}, fmt.Errorf("parse probes %s: %w", path, err)
	}
	return registry.ProbeSet{Probes: pf.Probes, MaxMismatches: pf.MaxMismatches}, nil
}

// servePprof exposes the pprof handlers on their own mux and listener,
// so profiling never shares a port (or an access policy) with the
// public API.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ps := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	if err := ps.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Printf("catsserve: pprof listener: %v", err)
	}
}
