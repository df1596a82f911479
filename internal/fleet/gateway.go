package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"pcoup/internal/machine"
	"pcoup/internal/service"
	"pcoup/internal/tenant"
)

// Options configures a Gateway.
type Options struct {
	// Pool configures the backend set and health checking.
	Pool PoolOptions
	// Tenants authenticates and meters submitters; nil runs open, with a
	// single unlimited "default" tenant and no key required.
	Tenants *tenant.Registry
	// Scheduling picks the dispatch discipline: "drr" (default — weighted
	// deficit round robin per tenant under strict interactive-before-
	// batch priority) or "fifo" (arrival order, the pre-tenant behavior,
	// kept as the fleetfair baseline).
	Scheduling string
	// BackendConcurrency is the worker count per backend draining the
	// dispatch queues (default 8). It replaces the old gateway-global
	// MaxInflight semaphore: concurrency is now per backend, and queued
	// cells wait in tenant-fair queues instead of a FIFO convoy.
	BackendConcurrency int
	// StealChunk bounds the cells moved per work-stealing transfer from a
	// saturated backend's queue tail to an idle backend (default 8).
	StealChunk int
	// NoPeerFill disables the distributed cache probe (owner's cache,
	// then the next ring node's) before computing a cell.
	NoPeerFill bool
	// HighWatermark is the global queued-cell count above which new batch
	// submissions are shed with 429; above twice the mark every class is
	// shed (default 4096; negative disables).
	HighWatermark int
	// RetryBudget is the attempt count per cell across backends before
	// the job fails (default 3).
	RetryBudget int
	// RetryBackoff is the base delay between failover attempts of one
	// cell; it doubles per attempt, capped at 30s (default 200ms).
	RetryBackoff time.Duration
	// HedgeQuantile is the completed-cell latency quantile after which a
	// straggler gets one hedged duplicate (default 0.9). Zero or >= 1
	// disables hedging.
	HedgeQuantile float64
	// HedgeMinSamples is how many completed cells must be observed
	// before hedging arms (default 8).
	HedgeMinSamples int
	// HedgeMinDelay floors the hedge trigger delay so microsecond cache
	// hits do not spawn pointless duplicates (default 25ms).
	HedgeMinDelay time.Duration
	// PresetNames lists preset names known to the backends besides
	// "baseline". Specs naming them pass JobSpec.Normalize's structural
	// checks at the gateway; the machine-dependent ones (a program's
	// bounded compile) are left to the backend that resolves the preset.
	PresetNames []string
}

func (o *Options) defaults() {
	if o.Tenants == nil {
		o.Tenants = tenant.Open()
	}
	if o.Scheduling == "" {
		o.Scheduling = "drr"
	}
	if o.BackendConcurrency <= 0 {
		o.BackendConcurrency = 8
	}
	if o.HighWatermark == 0 {
		o.HighWatermark = 4096
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 200 * time.Millisecond
	}
	if o.HedgeQuantile == 0 {
		o.HedgeQuantile = 0.9
	}
	if o.HedgeMinSamples <= 0 {
		o.HedgeMinSamples = 8
	}
	if o.HedgeMinDelay <= 0 {
		o.HedgeMinDelay = 25 * time.Millisecond
	}
}

// Gateway fronts a pool of pcserved backends behind the same HTTP job
// API and job registry as one pcserved; only the executor differs:
// sweeps scatter across the ring per cell and gather back in grid order
// (byte-identical to a single backend), other jobs forward whole to
// their content-key owner.
type Gateway struct {
	opts    Options
	pool    *Pool
	tenants *tenant.Registry
	disp    *dispatcher
	metrics *Metrics
	jobs    *service.Registry
	// presets is what specs validate against: baseline, plus each
	// PresetNames entry by name only (nil machine: the backends hold it).
	presets map[string]*machine.Config
	client  *http.Client // dispatch client (no timeout: streams are long)
	probe   *http.Client // peer-fill cache probes (bounded)
	sampler *latencySampler

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup // job goroutines
	workerWg   sync.WaitGroup // dispatch workers

	mu      sync.Mutex // guards started
	started bool
}

// New builds a Gateway; call Start before serving its Handler.
func New(opts Options) (*Gateway, error) {
	opts.defaults()
	if opts.Scheduling != "drr" && opts.Scheduling != "fifo" {
		return nil, fmt.Errorf("fleet: unknown scheduling %q (drr|fifo)", opts.Scheduling)
	}
	m := NewMetrics()
	pool, err := newPool(opts.Pool, m)
	if err != nil {
		return nil, err
	}
	presets := map[string]*machine.Config{"baseline": machine.Baseline()}
	for _, name := range opts.PresetNames {
		if name != "baseline" {
			presets[name] = nil
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Gateway{
		opts:    opts,
		pool:    pool,
		tenants: opts.Tenants,
		disp:    newDispatcher(opts.Pool.Backends, opts.Scheduling == "drr", opts.StealChunk, m),
		metrics: m,
		jobs: service.NewRegistry("f", func(_ *service.Job, state service.JobState) {
			m.JobState(string(state))
		}),
		presets:    presets,
		client:     &http.Client{},
		probe:      &http.Client{Timeout: 2 * time.Second},
		sampler:    newLatencySampler(),
		baseCtx:    ctx,
		baseCancel: cancel,
	}, nil
}

// Metrics exposes the gateway's counters (tests and tooling).
func (g *Gateway) Metrics() *Metrics { return g.metrics }

// Pool exposes the backend pool (tests and tooling).
func (g *Gateway) Pool() *Pool { return g.pool }

// Tenants exposes the tenant registry (the HTTP layer authenticates
// against it).
func (g *Gateway) Tenants() *tenant.Registry { return g.tenants }

// Start probes the backends once, launches the health-check loop, and
// spawns the per-backend dispatch workers.
func (g *Gateway) Start() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.started {
		return errors.New("fleet: already started")
	}
	g.started = true
	g.pool.start()
	for _, b := range g.pool.all() {
		for i := 0; i < g.opts.BackendConcurrency; i++ {
			g.workerWg.Add(1)
			go g.worker(b)
		}
	}
	return nil
}

// Shutdown stops the gateway: new submissions are refused, in-flight
// jobs drain until ctx expires (then their dispatches are cancelled),
// and the prober stops.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.jobs.Close()
	g.mu.Lock()
	started := g.started
	g.mu.Unlock()

	waited := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(waited)
	}()
	var drainErr error
	select {
	case <-waited:
	case <-ctx.Done():
		g.baseCancel()
		<-waited
		drainErr = ctx.Err()
	}
	g.baseCancel()
	g.disp.close()
	g.workerWg.Wait()
	if started {
		g.pool.close()
	}
	return drainErr
}

// Submit runs SubmitAs for the open-mode default tenant (tests,
// embedded use). With a closed registry it fails: callers must
// authenticate and use SubmitAs.
func (g *Gateway) Submit(spec service.JobSpec) (*service.Job, error) {
	ten := g.tenants.Default()
	if ten == nil {
		return nil, tenant.ErrUnauthorized
	}
	return g.SubmitAs(spec, ten)
}

// SubmitAs validates spec (JobSpec.Normalize against the presets the
// gateway knows), runs admission control for the tenant, and launches
// the job's execution. A *tenant.QuotaError return maps to HTTP 429 +
// Retry-After.
func (g *Gateway) SubmitAs(spec service.JobSpec, ten *tenant.Tenant) (*service.Job, error) {
	if _, err := spec.Normalize(g.presets); err != nil {
		return nil, err
	}
	cells := 1
	if spec.Sweep != nil {
		cells = len(spec.Sweep.Cells())
	}
	if err := g.admit(ten, cells); err != nil {
		return nil, err
	}
	// The admitted cells stay reserved on the tenant until the
	// dispatcher takes them; a job that ends before it starts hands them
	// back through the registry.
	job := service.NewJob(spec, nil, ten.Name(), func() { ten.SubQueued(cells) })
	if err := g.jobs.Add(job, func() error { g.wg.Add(1); return nil }); err != nil {
		return nil, err
	}
	go func() {
		defer g.wg.Done()
		g.jobs.Run(g.baseCtx, job, 0, func(ctx context.Context, job *service.Job) (json.RawMessage, error) {
			if job.Spec().Sweep != nil {
				return g.runSweepJob(ctx, job, ten)
			}
			return g.runUnitJob(ctx, job, ten)
		})
	}()
	return job, nil
}

// admit applies global load shedding, then the tenant's own quotas, for
// a submission of n cells. On success the tenant's queued count is
// raised by n; every rejection is counted in pcfleet_shed_total.
func (g *Gateway) admit(ten *tenant.Tenant, n int) error {
	if hw := g.opts.HighWatermark; hw > 0 {
		total := g.disp.queued()
		var reason string
		switch {
		case total+n > 2*hw:
			// Past twice the mark the gateway protects itself from
			// everyone; below it only batch is shed, so interactive work
			// stays admissible while the flood is turned away.
			reason = fmt.Sprintf("gateway overloaded: %d cells queued (hard cap %d)", total, 2*hw)
		case ten.Class() == tenant.Batch && total+n > hw:
			reason = fmt.Sprintf("gateway busy: %d cells queued, batch is shed above %d", total, hw)
		}
		if reason != "" {
			g.metrics.Shed(string(ten.Class()))
			return &tenant.QuotaError{
				Tenant: ten.Name(), Class: ten.Class(),
				Reason: reason, RetryAfter: 2 * time.Second,
			}
		}
	}
	if qe := ten.Admit(n); qe != nil {
		g.metrics.Shed(string(ten.Class()))
		return qe
	}
	return nil
}

// gauges samples the live state for /metrics and /healthz.
func (g *Gateway) gauges() FleetGauges {
	byState, accepting := g.jobs.Count()
	var backends []BackendGauge
	for _, b := range g.pool.all() {
		b.mu.Lock()
		backends = append(backends, BackendGauge{
			URL: b.URL, Healthy: b.healthy, Inflight: b.inflight,
			QueueDepth: b.load.QueueDepth, RemoteInflight: b.load.Inflight,
		})
		b.mu.Unlock()
	}
	var tenants []TenantGauge
	for _, t := range g.tenants.All() {
		tenants = append(tenants, TenantGauge{
			Name: t.Name(), Class: string(t.Class()), Weight: t.Weight(),
			Queued: t.Queued(), Inflight: t.Inflight(),
		})
	}
	return FleetGauges{
		Backends: backends, Tenants: tenants,
		DispatchDepth: g.disp.depths(),
		JobsByState:   byState, Accepting: accepting,
	}
}
