package fleet

import (
	"net/http"

	"pcoup/internal/service"
	"pcoup/internal/tenant"
)

// Handler returns the gateway's HTTP API — the job routes of one
// pcserved (service.HandleJobs over the gateway's registry), so pcq and
// every other client work unchanged — plus
//
//	GET    /healthz             liveness: always 200, with backend summary
//	GET    /readyz              readiness: 503 while draining or no backend is healthy
//	GET    /metrics             Prometheus text exposition
//
// When the gateway runs with a tenant file, every /v1/ route requires a
// valid API key (Authorization: Bearer <key> or X-PC-Tenant-Key) and
// answers 401 otherwise. /healthz, /readyz and /metrics stay open —
// probes and scrapers don't carry tenant identity.
func (g *Gateway) Handler() http.Handler {
	api := http.NewServeMux()
	service.HandleJobs(api, g.jobs, g.submitRequest)
	mux := http.NewServeMux()
	mux.Handle("/v1/", g.withTenant(api))
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	return mux
}

// withTenant authenticates the request against the tenant registry and
// stashes the resolved tenant in the request context. In open mode
// (no tenant file) every request resolves to the unlimited default.
func (g *Gateway) withTenant(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ten, err := g.tenants.FromRequest(r)
		if err != nil {
			service.WriteError(w, http.StatusUnauthorized, err)
			return
		}
		h.ServeHTTP(w, r.WithContext(tenant.NewContext(r.Context(), ten)))
	})
}

// submitRequest submits spec for the request's authenticated tenant.
func (g *Gateway) submitRequest(r *http.Request, spec service.JobSpec) (*service.Job, error) {
	return g.SubmitAs(spec, tenant.FromContext(r.Context()))
}

// fleetHealth is the gateway's /healthz and /readyz body.
type fleetHealth struct {
	Status          string          `json:"status"`
	Accepting       bool            `json:"accepting"`
	BackendsHealthy int             `json:"backends_healthy"`
	BackendsTotal   int             `json:"backends_total"`
	Backends        []backendHealth `json:"backends"`
}

type backendHealth struct {
	URL        string `json:"url"`
	Healthy    bool   `json:"healthy"`
	Inflight   int    `json:"inflight"`
	QueueDepth int    `json:"queue_depth"`
	LastError  string `json:"last_error,omitempty"`
}

func (g *Gateway) health() fleetHealth {
	_, accepting := g.jobs.Count()
	h := fleetHealth{Status: "ok", Accepting: accepting}
	for _, b := range g.pool.all() {
		b.mu.Lock()
		bh := backendHealth{
			URL: b.URL, Healthy: b.healthy, Inflight: b.inflight,
			QueueDepth: b.load.QueueDepth, LastError: b.lastErr,
		}
		b.mu.Unlock()
		h.BackendsTotal++
		if bh.Healthy {
			h.BackendsHealthy++
		}
		h.Backends = append(h.Backends, bh)
	}
	return h
}

// handleHealthz is liveness: the gateway process is up, with a backend
// summary for operators. Always 200.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, g.health())
}

// handleReadyz is readiness: 503 while draining or while no backend is
// admitted (the gateway cannot place work anywhere).
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := g.health()
	switch {
	case !h.Accepting:
		h.Status = "draining"
		w.Header().Set("Retry-After", "1")
		service.WriteJSON(w, http.StatusServiceUnavailable, h)
	case h.BackendsHealthy == 0:
		h.Status = "no healthy backends"
		w.Header().Set("Retry-After", "1")
		service.WriteJSON(w, http.StatusServiceUnavailable, h)
	default:
		h.Status = "ready"
		service.WriteJSON(w, http.StatusOK, h)
	}
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.metrics.WriteText(w, g.gauges())
}
