package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// latencyBuckets are the histogram upper bounds, in seconds. Simulation
// jobs span milliseconds (cached) to minutes (full sweeps), so the
// buckets cover five decades.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120, 300}

// histogram is a fixed-bucket latency histogram in the Prometheus
// cumulative style (each bucket counts observations <= its bound).
type histogram struct {
	counts []int64 // one per bucket; observations above the last bound
	over   int64   // land in over (the +Inf bucket)
	sum    float64
	count  int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]int64, len(latencyBuckets))}
}

func (h *histogram) observe(v float64) {
	h.sum += v
	h.count++
	for i, le := range latencyBuckets {
		if v <= le {
			h.counts[i]++
			return
		}
	}
	h.over++
}

// Metrics aggregates the daemon's counters and histograms. All methods
// are safe for concurrent use. Gauges that reflect live structures
// (queue depth, jobs by state, cache size) are sampled at render time by
// the server rather than stored here.
type Metrics struct {
	mu        sync.Mutex
	jobsTotal map[string]int64      // submissions and state transitions
	stages    map[string]*histogram // per-stage latency

	journalRecovered int64 // jobs resubmitted from the journal at start
	retriesExhausted int64 // recovered jobs failed for exceeding the budget
	panics           int64 // panics recovered in the execution barrier

	// Per-tenant attribution. The tenant set is normally bounded by the
	// gateway's -tenants file; because the header is client-supplied the
	// maps additionally cap at maxTenantLabels distinct names, folding
	// overflow into "_other" so a label-cardinality blowup is impossible.
	tenantJobs map[string]int64 // submissions per tenant
	tenantHits map[string]int64 // whole-job cache hits per tenant
}

// maxTenantLabels bounds the distinct tenant label values retained.
const maxTenantLabels = 256

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		jobsTotal:  map[string]int64{},
		stages:     map[string]*histogram{},
		tenantJobs: map[string]int64{},
		tenantHits: map[string]int64{},
	}
}

// JobState counts a job transition into the named state ("queued" on
// submission, then "running" and one terminal state).
func (m *Metrics) JobState(state string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsTotal[state]++
}

// Observe records a stage latency in seconds ("queue": submission to
// dispatch; "run": dispatch to completion).
func (m *Metrics) Observe(stage string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.stages[stage]
	if h == nil {
		h = newHistogram()
		m.stages[stage] = h
	}
	h.observe(seconds)
}

// JournalRecovered counts one job resubmitted from the write-ahead
// journal after a restart.
func (m *Metrics) JournalRecovered() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.journalRecovered++
}

// RetryBudgetExhausted counts one recovered job failed instead of
// retried because it exceeded the per-job retry budget.
func (m *Metrics) RetryBudgetExhausted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retriesExhausted++
}

// Panic counts one panic recovered by the worker's execution barrier
// (a compiler or simulator crash isolated to the offending job).
func (m *Metrics) Panic() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.panics++
}

// tenantLabel folds new tenant names past the cardinality cap into
// "_other". Callers hold m.mu.
func tenantLabel(counts map[string]int64, tenant string) string {
	if _, ok := counts[tenant]; ok || len(counts) < maxTenantLabels {
		return tenant
	}
	return "_other"
}

// TenantJob counts one submission attributed to a tenant. Anonymous
// submissions (empty tenant) are not counted — pcserved_jobs_total
// already covers the aggregate.
func (m *Metrics) TenantJob(tenant string) {
	if tenant == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tenantJobs[tenantLabel(m.tenantJobs, tenant)]++
}

// TenantHit counts one whole-job cache hit attributed to a tenant.
func (m *Metrics) TenantHit(tenant string) {
	if tenant == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tenantHits[tenantLabel(m.tenantHits, tenant)]++
}

// Gauges is the live state sampled by the server at scrape time.
type Gauges struct {
	QueueDepth     int
	Inflight       int // jobs currently running
	Workers        int
	JobsByState    map[string]int
	CacheEntries   int
	CacheBytes     int64
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	Accepting      bool
}

// WriteText renders everything in the Prometheus text exposition format.
func (m *Metrics) WriteText(w io.Writer, g Gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP pcserved_jobs_total Job state transitions since start.\n")
	fmt.Fprintf(w, "# TYPE pcserved_jobs_total counter\n")
	for _, state := range sortedKeys(m.jobsTotal) {
		fmt.Fprintf(w, "pcserved_jobs_total{state=%q} %d\n", state, m.jobsTotal[state])
	}

	fmt.Fprintf(w, "# HELP pcserved_jobs_current Jobs currently in each state.\n")
	fmt.Fprintf(w, "# TYPE pcserved_jobs_current gauge\n")
	states := make([]string, 0, len(g.JobsByState))
	for s := range g.JobsByState {
		states = append(states, s)
	}
	sort.Strings(states)
	for _, s := range states {
		fmt.Fprintf(w, "pcserved_jobs_current{state=%q} %d\n", s, g.JobsByState[s])
	}

	fmt.Fprintf(w, "# HELP pcserved_queue_depth Jobs waiting for a worker.\n")
	fmt.Fprintf(w, "# TYPE pcserved_queue_depth gauge\n")
	fmt.Fprintf(w, "pcserved_queue_depth %d\n", g.QueueDepth)

	fmt.Fprintf(w, "# HELP pcserved_inflight Jobs currently executing.\n")
	fmt.Fprintf(w, "# TYPE pcserved_inflight gauge\n")
	fmt.Fprintf(w, "pcserved_inflight %d\n", g.Inflight)

	fmt.Fprintf(w, "# HELP pcserved_workers Size of the worker pool.\n")
	fmt.Fprintf(w, "# TYPE pcserved_workers gauge\n")
	fmt.Fprintf(w, "pcserved_workers %d\n", g.Workers)

	accepting := 0
	if g.Accepting {
		accepting = 1
	}
	fmt.Fprintf(w, "# HELP pcserved_accepting Whether new jobs are accepted (0 during drain).\n")
	fmt.Fprintf(w, "# TYPE pcserved_accepting gauge\n")
	fmt.Fprintf(w, "pcserved_accepting %d\n", accepting)

	fmt.Fprintf(w, "# HELP pcserved_journal_recovered_total Jobs resubmitted from the write-ahead journal after a restart.\n")
	fmt.Fprintf(w, "# TYPE pcserved_journal_recovered_total counter\n")
	fmt.Fprintf(w, "pcserved_journal_recovered_total %d\n", m.journalRecovered)
	fmt.Fprintf(w, "# HELP pcserved_retry_budget_exhausted_total Recovered jobs failed for exceeding the retry budget.\n")
	fmt.Fprintf(w, "# TYPE pcserved_retry_budget_exhausted_total counter\n")
	fmt.Fprintf(w, "pcserved_retry_budget_exhausted_total %d\n", m.retriesExhausted)
	fmt.Fprintf(w, "# HELP pcserved_panics_total Panics recovered by the worker execution barrier (each failed one job, never the daemon).\n")
	fmt.Fprintf(w, "# TYPE pcserved_panics_total counter\n")
	fmt.Fprintf(w, "pcserved_panics_total %d\n", m.panics)

	fmt.Fprintf(w, "# HELP pcserved_cache_hits_total Result cache hits.\n")
	fmt.Fprintf(w, "# TYPE pcserved_cache_hits_total counter\n")
	fmt.Fprintf(w, "pcserved_cache_hits_total %d\n", g.CacheHits)
	fmt.Fprintf(w, "# HELP pcserved_cache_misses_total Result cache misses.\n")
	fmt.Fprintf(w, "# TYPE pcserved_cache_misses_total counter\n")
	fmt.Fprintf(w, "pcserved_cache_misses_total %d\n", g.CacheMisses)
	fmt.Fprintf(w, "# HELP pcserved_cache_entries Result cache entries resident.\n")
	fmt.Fprintf(w, "# TYPE pcserved_cache_entries gauge\n")
	fmt.Fprintf(w, "pcserved_cache_entries %d\n", g.CacheEntries)
	fmt.Fprintf(w, "# HELP pcserved_cache_bytes Result cache payload bytes resident.\n")
	fmt.Fprintf(w, "# TYPE pcserved_cache_bytes gauge\n")
	fmt.Fprintf(w, "pcserved_cache_bytes %d\n", g.CacheBytes)
	fmt.Fprintf(w, "# HELP pcserved_cache_evictions_total Result cache entries evicted by the LRU bounds.\n")
	fmt.Fprintf(w, "# TYPE pcserved_cache_evictions_total counter\n")
	fmt.Fprintf(w, "pcserved_cache_evictions_total %d\n", g.CacheEvictions)
	if total := g.CacheHits + g.CacheMisses; total > 0 {
		fmt.Fprintf(w, "# HELP pcserved_cache_hit_ratio Hits over lookups since start.\n")
		fmt.Fprintf(w, "# TYPE pcserved_cache_hit_ratio gauge\n")
		fmt.Fprintf(w, "pcserved_cache_hit_ratio %.6f\n", float64(g.CacheHits)/float64(total))
	}

	// The compile table is process-wide: where a gateway and backends
	// share a process, every one of them reports the same counts.
	lookups, fills := CompileTableStats()
	fmt.Fprintf(w, "# HELP pcserved_program_compiles_total Program compiles run in this process (compile table misses).\n")
	fmt.Fprintf(w, "# TYPE pcserved_program_compiles_total counter\n")
	fmt.Fprintf(w, "pcserved_program_compiles_total %d\n", fills)
	fmt.Fprintf(w, "# HELP pcserved_program_compile_hits_total Program compiles served from this process's compile table.\n")
	fmt.Fprintf(w, "# TYPE pcserved_program_compile_hits_total counter\n")
	fmt.Fprintf(w, "pcserved_program_compile_hits_total %d\n", lookups-fills)

	if len(m.tenantJobs) > 0 {
		fmt.Fprintf(w, "# HELP pcserved_tenant_jobs_total Submissions per tenant.\n")
		fmt.Fprintf(w, "# TYPE pcserved_tenant_jobs_total counter\n")
		for _, t := range sortedKeys(m.tenantJobs) {
			fmt.Fprintf(w, "pcserved_tenant_jobs_total{tenant=%q} %d\n", t, m.tenantJobs[t])
		}
	}
	if len(m.tenantHits) > 0 {
		fmt.Fprintf(w, "# HELP pcserved_tenant_cache_hits_total Whole-job cache hits per tenant.\n")
		fmt.Fprintf(w, "# TYPE pcserved_tenant_cache_hits_total counter\n")
		for _, t := range sortedKeys(m.tenantHits) {
			fmt.Fprintf(w, "pcserved_tenant_cache_hits_total{tenant=%q} %d\n", t, m.tenantHits[t])
		}
	}

	fmt.Fprintf(w, "# HELP pcserved_stage_latency_seconds Per-stage job latency.\n")
	fmt.Fprintf(w, "# TYPE pcserved_stage_latency_seconds histogram\n")
	for _, stage := range sortedKeys(m.stages) {
		h := m.stages[stage]
		var cum int64
		for i, le := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "pcserved_stage_latency_seconds_bucket{stage=%q,le=\"%g\"} %d\n", stage, le, cum)
		}
		fmt.Fprintf(w, "pcserved_stage_latency_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", stage, cum+h.over)
		fmt.Fprintf(w, "pcserved_stage_latency_seconds_sum{stage=%q} %.6f\n", stage, h.sum)
		fmt.Fprintf(w, "pcserved_stage_latency_seconds_count{stage=%q} %d\n", stage, h.count)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
