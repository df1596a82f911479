package fleet

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"pcoup/internal/service"
)

// Metrics aggregates the gateway's counters. Live gauges (backend
// health, inflight) are sampled from the pool at render time.
type Metrics struct {
	mu sync.Mutex

	jobsTotal       map[string]int64 // gateway job state transitions
	dispatched      map[string]int64 // cells dispatched per backend URL
	affinityLookups int64            // cells routed by content key
	affinityHits    int64            // ... that the routed backend served from cache
	failovers       int64            // attempts re-routed after a backend failure
	probeFailures   int64            // failed /readyz probes
	ejections       int64            // backends ejected
	readmissions    int64            // backends re-admitted after ejection
	steals          int64            // cells stolen from saturated backend queues
	peerFillHits    int64            // cells served by a peer cache probe
	shed            map[string]int64 // admission rejections by class label
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		jobsTotal:  map[string]int64{},
		dispatched: map[string]int64{},
		shed:       map[string]int64{},
	}
}

func (m *Metrics) count(p *int64) {
	m.mu.Lock()
	*p++
	m.mu.Unlock()
}

// JobState counts a gateway job transition into the named state.
func (m *Metrics) JobState(state string) {
	m.mu.Lock()
	m.jobsTotal[state]++
	m.mu.Unlock()
}

// Dispatched counts one cell (or whole forwarded job) sent to a backend.
func (m *Metrics) Dispatched(backend string) {
	m.mu.Lock()
	m.dispatched[backend]++
	m.mu.Unlock()
}

// Affinity records one content-key-routed dispatch and whether the
// backend reported serving it from its cache (the affinity payoff).
func (m *Metrics) Affinity(hit bool) {
	m.mu.Lock()
	m.affinityLookups++
	if hit {
		m.affinityHits++
	}
	m.mu.Unlock()
}

// AffinityStats returns lifetime affinity lookups and hits.
func (m *Metrics) AffinityStats() (lookups, hits int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.affinityLookups, m.affinityHits
}

// Failover counts one attempt re-routed to another backend.
func (m *Metrics) Failover() { m.count(&m.failovers) }

// Failovers returns the lifetime failover count.
func (m *Metrics) Failovers() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failovers
}

// ProbeFailed counts one failed health probe.
func (m *Metrics) ProbeFailed() { m.count(&m.probeFailures) }

// Ejected counts one backend ejection.
func (m *Metrics) Ejected() { m.count(&m.ejections) }

// Readmitted counts one backend re-admission.
func (m *Metrics) Readmitted() { m.count(&m.readmissions) }

// Stole counts n cells moved by one work-stealing transfer.
func (m *Metrics) Stole(n int) {
	m.mu.Lock()
	m.steals += int64(n)
	m.mu.Unlock()
}

// Steals returns the lifetime stolen-cell count.
func (m *Metrics) Steals() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.steals
}

// PeerFillHit counts one cell served by probing a peer backend's cache
// instead of recomputing.
func (m *Metrics) PeerFillHit() { m.count(&m.peerFillHits) }

// PeerFillHits returns the lifetime peer-fill hit count.
func (m *Metrics) PeerFillHits() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peerFillHits
}

// Shed counts one admission rejection for the given class label
// ("interactive" or "batch" — bounded cardinality by construction).
func (m *Metrics) Shed(class string) {
	m.mu.Lock()
	m.shed[class]++
	m.mu.Unlock()
}

// ShedTotal returns the lifetime rejection count for a class label.
func (m *Metrics) ShedTotal(class string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shed[class]
}

// BackendGauge is one backend's live state at scrape time.
type BackendGauge struct {
	URL      string
	Healthy  bool
	Inflight int
	// QueueDepth/RemoteInflight are the backend's own load report from
	// its last successful probe.
	QueueDepth     int
	RemoteInflight int
}

// TenantGauge is one tenant's live accounting at scrape time.
type TenantGauge struct {
	Name     string
	Class    string
	Weight   int
	Queued   int
	Inflight int
}

// FleetGauges is the live state sampled by the gateway at scrape time.
//
// Label cardinality: every labeled family below is bounded by
// configuration — {backend} by the -backends list, {tenant} by the
// -tenants file (open mode has exactly one), {class} by the two
// priority classes, {state} by the job lifecycle. Nothing
// request-derived ever becomes a label.
type FleetGauges struct {
	Backends      []BackendGauge
	Tenants       []TenantGauge
	DispatchDepth map[string]int // gateway-side queued cells per backend
	JobsByState   map[string]int
	Accepting     bool
}

// WriteText renders everything in the Prometheus text exposition format.
func (m *Metrics) WriteText(w io.Writer, g FleetGauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP pcfleet_jobs_total Gateway job state transitions since start.\n")
	fmt.Fprintf(w, "# TYPE pcfleet_jobs_total counter\n")
	for _, state := range sortedKeys(m.jobsTotal) {
		fmt.Fprintf(w, "pcfleet_jobs_total{state=%q} %d\n", state, m.jobsTotal[state])
	}

	fmt.Fprintf(w, "# HELP pcfleet_jobs_current Gateway jobs currently in each state.\n")
	fmt.Fprintf(w, "# TYPE pcfleet_jobs_current gauge\n")
	states := make([]string, 0, len(g.JobsByState))
	for s := range g.JobsByState {
		states = append(states, s)
	}
	sort.Strings(states)
	for _, s := range states {
		fmt.Fprintf(w, "pcfleet_jobs_current{state=%q} %d\n", s, g.JobsByState[s])
	}

	accepting := 0
	if g.Accepting {
		accepting = 1
	}
	fmt.Fprintf(w, "# HELP pcfleet_accepting Whether new jobs are accepted (0 during drain).\n")
	fmt.Fprintf(w, "# TYPE pcfleet_accepting gauge\n")
	fmt.Fprintf(w, "pcfleet_accepting %d\n", accepting)

	healthy := 0
	fmt.Fprintf(w, "# HELP pcfleet_backend_up Whether the backend is admitted (1) or ejected (0).\n")
	fmt.Fprintf(w, "# TYPE pcfleet_backend_up gauge\n")
	for _, b := range g.Backends {
		up := 0
		if b.Healthy {
			up = 1
			healthy++
		}
		fmt.Fprintf(w, "pcfleet_backend_up{backend=%q} %d\n", b.URL, up)
	}
	fmt.Fprintf(w, "# HELP pcfleet_backends_healthy Admitted backends.\n")
	fmt.Fprintf(w, "# TYPE pcfleet_backends_healthy gauge\n")
	fmt.Fprintf(w, "pcfleet_backends_healthy %d\n", healthy)

	fmt.Fprintf(w, "# HELP pcfleet_backend_inflight Gateway dispatches in flight per backend.\n")
	fmt.Fprintf(w, "# TYPE pcfleet_backend_inflight gauge\n")
	for _, b := range g.Backends {
		fmt.Fprintf(w, "pcfleet_backend_inflight{backend=%q} %d\n", b.URL, b.Inflight)
	}

	fmt.Fprintf(w, "# HELP pcfleet_backend_queue_depth Backend-reported queued jobs (last probe).\n")
	fmt.Fprintf(w, "# TYPE pcfleet_backend_queue_depth gauge\n")
	for _, b := range g.Backends {
		fmt.Fprintf(w, "pcfleet_backend_queue_depth{backend=%q} %d\n", b.URL, b.QueueDepth)
	}

	fmt.Fprintf(w, "# HELP pcfleet_dispatch_queue_depth Gateway-side queued cells per backend dispatch queue.\n")
	fmt.Fprintf(w, "# TYPE pcfleet_dispatch_queue_depth gauge\n")
	for _, url := range sortedKeys(g.DispatchDepth) {
		fmt.Fprintf(w, "pcfleet_dispatch_queue_depth{backend=%q} %d\n", url, g.DispatchDepth[url])
	}

	fmt.Fprintf(w, "# HELP pcfleet_tenant_queued_cells Admitted, undispatched cells per tenant.\n")
	fmt.Fprintf(w, "# TYPE pcfleet_tenant_queued_cells gauge\n")
	for _, t := range g.Tenants {
		fmt.Fprintf(w, "pcfleet_tenant_queued_cells{tenant=%q,class=%q} %d\n", t.Name, t.Class, t.Queued)
	}
	fmt.Fprintf(w, "# HELP pcfleet_tenant_inflight_cells Dispatched, unfinished cells per tenant.\n")
	fmt.Fprintf(w, "# TYPE pcfleet_tenant_inflight_cells gauge\n")
	for _, t := range g.Tenants {
		fmt.Fprintf(w, "pcfleet_tenant_inflight_cells{tenant=%q,class=%q} %d\n", t.Name, t.Class, t.Inflight)
	}
	fmt.Fprintf(w, "# HELP pcfleet_tenant_weight Configured DRR weight per tenant.\n")
	fmt.Fprintf(w, "# TYPE pcfleet_tenant_weight gauge\n")
	for _, t := range g.Tenants {
		fmt.Fprintf(w, "pcfleet_tenant_weight{tenant=%q,class=%q} %d\n", t.Name, t.Class, t.Weight)
	}

	fmt.Fprintf(w, "# HELP pcfleet_cells_dispatched_total Cells dispatched per backend.\n")
	fmt.Fprintf(w, "# TYPE pcfleet_cells_dispatched_total counter\n")
	for _, url := range sortedKeys(m.dispatched) {
		fmt.Fprintf(w, "pcfleet_cells_dispatched_total{backend=%q} %d\n", url, m.dispatched[url])
	}

	fmt.Fprintf(w, "# HELP pcfleet_affinity_lookups_total Content-key-routed dispatches.\n")
	fmt.Fprintf(w, "# TYPE pcfleet_affinity_lookups_total counter\n")
	fmt.Fprintf(w, "pcfleet_affinity_lookups_total %d\n", m.affinityLookups)
	fmt.Fprintf(w, "# HELP pcfleet_affinity_hits_total Dispatches the routed backend served from its cache.\n")
	fmt.Fprintf(w, "# TYPE pcfleet_affinity_hits_total counter\n")
	fmt.Fprintf(w, "pcfleet_affinity_hits_total %d\n", m.affinityHits)
	if m.affinityLookups > 0 {
		fmt.Fprintf(w, "# HELP pcfleet_affinity_hit_ratio Affinity hits over lookups since start.\n")
		fmt.Fprintf(w, "# TYPE pcfleet_affinity_hit_ratio gauge\n")
		fmt.Fprintf(w, "pcfleet_affinity_hit_ratio %.6f\n", float64(m.affinityHits)/float64(m.affinityLookups))
	}

	fmt.Fprintf(w, "# HELP pcfleet_failovers_total Attempts re-routed after a backend failure.\n")
	fmt.Fprintf(w, "# TYPE pcfleet_failovers_total counter\n")
	fmt.Fprintf(w, "pcfleet_failovers_total %d\n", m.failovers)

	fmt.Fprintf(w, "# HELP pcfleet_probe_failures_total Failed backend health probes.\n")
	fmt.Fprintf(w, "# TYPE pcfleet_probe_failures_total counter\n")
	fmt.Fprintf(w, "pcfleet_probe_failures_total %d\n", m.probeFailures)
	fmt.Fprintf(w, "# HELP pcfleet_backend_ejections_total Backends ejected after failed probes or dispatch errors.\n")
	fmt.Fprintf(w, "# TYPE pcfleet_backend_ejections_total counter\n")
	fmt.Fprintf(w, "pcfleet_backend_ejections_total %d\n", m.ejections)
	fmt.Fprintf(w, "# HELP pcfleet_backend_readmissions_total Ejected backends re-admitted by a passing probe.\n")
	fmt.Fprintf(w, "# TYPE pcfleet_backend_readmissions_total counter\n")
	fmt.Fprintf(w, "pcfleet_backend_readmissions_total %d\n", m.readmissions)

	fmt.Fprintf(w, "# HELP pcfleet_steals_total Queued cells moved from a saturated backend queue to an idle one.\n")
	fmt.Fprintf(w, "# TYPE pcfleet_steals_total counter\n")
	fmt.Fprintf(w, "pcfleet_steals_total %d\n", m.steals)

	fmt.Fprintf(w, "# HELP pcfleet_peer_fill_hits_total Cells served by a peer backend's cache instead of recomputing.\n")
	fmt.Fprintf(w, "# TYPE pcfleet_peer_fill_hits_total counter\n")
	fmt.Fprintf(w, "pcfleet_peer_fill_hits_total %d\n", m.peerFillHits)

	fmt.Fprintf(w, "# HELP pcfleet_shed_total Admission rejections (quota, rate limit, high watermark) by class.\n")
	fmt.Fprintf(w, "# TYPE pcfleet_shed_total counter\n")
	for _, class := range sortedKeys(m.shed) {
		fmt.Fprintf(w, "pcfleet_shed_total{class=%q} %d\n", class, m.shed[class])
	}

	// The compile table is process-wide: these count the gateway's own
	// validation compiles, and any backend's that share its process.
	lookups, fills := service.CompileTableStats()
	fmt.Fprintf(w, "# HELP pcfleet_program_compiles_total Program compiles run in this process (compile table misses).\n")
	fmt.Fprintf(w, "# TYPE pcfleet_program_compiles_total counter\n")
	fmt.Fprintf(w, "pcfleet_program_compiles_total %d\n", fills)
	fmt.Fprintf(w, "# HELP pcfleet_program_compile_hits_total Program compiles served from this process's compile table.\n")
	fmt.Fprintf(w, "# TYPE pcfleet_program_compile_hits_total counter\n")
	fmt.Fprintf(w, "pcfleet_program_compile_hits_total %d\n", lookups-fills)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
