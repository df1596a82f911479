package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"pcoup/internal/machine"
)

// Handler returns the daemon's HTTP API: the shared job routes (see
// HandleJobs) plus
//
//	GET    /v1/cache/{key}      raw cached payload for a content key (404 on miss)
//	GET    /healthz             liveness: always 200 while the process serves, with load detail
//	GET    /readyz              readiness: 503 + Retry-After while draining
//	GET    /metrics             Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	HandleJobs(mux, s.jobs, s.submitRequest)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// submitRequest submits spec attributed to the request's X-PC-Tenant.
// The tenant name is pure attribution (journal, metrics, views) —
// authentication happens at the gateway, which sets this header from
// the verified API key. Length-cap the client-supplied value so a
// hostile direct submitter cannot bloat journal records.
func (s *Server) submitRequest(r *http.Request, spec JobSpec) (*Job, error) {
	tenant := r.Header.Get("X-PC-Tenant")
	if len(tenant) > 64 {
		tenant = tenant[:64]
	}
	return s.submit(spec, tenant)
}

// WriteJSON renders v with a stable, readable encoding — the one
// encoding every pcserved and pcfleet response body uses.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError renders err as the {"error": ...} body.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

// HandleJobs registers the job routes shared by pcserved and pcfleet on
// mux, over the jobs in reg:
//
//	POST   /v1/jobs             submit a job (202 + job view)
//	POST   /v1/programs         compile-and-run an untrusted source program (202 + job view; 422 on limit/syntax rejection)
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status; includes result when done
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/stream NDJSON: per-cell results as they finish
//
// submit is the executor's front door: it validates and accepts a
// decoded spec for the request's submitter. Its error picks the status:
// 429 + Retry-After for a quota rejection (an error with a
// RetryAfterSeconds method), 503 while draining or full, 422 for a
// ProgramError, 400 for any other invalid spec.
func HandleJobs(mux *http.ServeMux, reg *Registry, submit func(*http.Request, JobSpec) (*Job, error)) {
	respond := func(w http.ResponseWriter, r *http.Request, spec JobSpec) {
		job, err := submit(r, spec)
		var quota interface{ RetryAfterSeconds() int }
		var pe *ProgramError
		switch {
		case err == nil:
			WriteJSON(w, http.StatusAccepted, job.View(false))
		case errors.As(err, &quota):
			w.Header().Set("Retry-After", strconv.Itoa(quota.RetryAfterSeconds()))
			WriteError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
			WriteError(w, http.StatusServiceUnavailable, err)
		case errors.As(err, &pe):
			WriteError(w, http.StatusUnprocessableEntity, err)
		default:
			WriteError(w, http.StatusBadRequest, err)
		}
	}
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if decodeStrict(w, r, &spec) {
			respond(w, r, spec)
		}
	})
	mux.HandleFunc("POST /v1/programs", func(w http.ResponseWriter, r *http.Request) {
		var req ProgramRequest
		if decodeStrict(w, r, &req) {
			respond(w, r, req.JobSpec())
		}
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, reg.List())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if job, ok := jobFor(w, r, reg.Get); ok {
			WriteJSON(w, http.StatusOK, job.View(true))
		}
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if job, ok := jobFor(w, r, reg.Cancel); ok {
			WriteJSON(w, http.StatusOK, job.View(false))
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		if job, ok := jobFor(w, r, reg.Get); ok {
			streamJob(w, r, job)
		}
	})
}

// decodeStrict decodes the request body into v, rejecting unknown
// fields; on failure it writes the 400 and returns false.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// jobFor resolves {id} through lookup, writing a 404 on miss.
func jobFor(w http.ResponseWriter, r *http.Request, lookup func(string) (*Job, error)) (*Job, bool) {
	job, err := lookup(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return nil, false
	}
	return job, true
}

// ProgramRequest is the POST /v1/programs body: the program spec
// flattened to the top level plus the usual machine/options/timeout job
// fields. It is sugar for POST /v1/jobs with a "program" spec — both
// produce identical jobs, cache entries, and fleet routing keys.
type ProgramRequest struct {
	ProgramSpec
	Machine   *machine.Config `json:"machine,omitempty"`
	Preset    string          `json:"preset,omitempty"`
	Options   SimOptions      `json:"options,omitempty"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
}

// JobSpec converts the request to the equivalent job spec.
func (pr *ProgramRequest) JobSpec() JobSpec {
	p := pr.ProgramSpec
	return JobSpec{
		Program: &p,
		Machine: pr.Machine, Preset: pr.Preset,
		Options: pr.Options, TimeoutMS: pr.TimeoutMS,
	}
}

// streamJob writes NDJSON: one line per completed sweep cell (in grid
// order), then a terminal status line {"state":...}. Non-sweep jobs get
// their whole result as the single data line once done. The stream
// follows a live job until it reaches a terminal state or the client
// goes away. A gateway job appends its scattered cells in grid order
// too, so its stream is byte-identical to a single backend's.
func streamJob(w http.ResponseWriter, r *http.Request, job *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		job.mu.Lock()
		cells := job.cells[sent:]
		state := job.state
		result := job.result
		errMsg := job.errMsg
		updated := job.updated
		job.mu.Unlock()

		for _, cell := range cells {
			w.Write(cell)
			w.Write([]byte("\n"))
			sent++
		}
		if state.Terminal() {
			if sent == 0 && len(result) > 0 {
				w.Write(result)
				w.Write([]byte("\n"))
			}
			final, _ := json.Marshal(struct {
				State JobState `json:"state"`
				Error string   `json:"error,omitempty"`
			}{state, errMsg})
			w.Write(final)
			w.Write([]byte("\n"))
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			return
		}
	}
}

// handleCacheGet serves the raw cached payload for a content key. The
// fleet gateway uses this as the peer-fill probe: before computing a
// cell it owns (or stole), it asks the cell's cache home whether the
// bytes already exist. Payloads are content-addressed, so serving them
// cross-node cannot change results. Lookups go through Get, not Peek:
// a served payload is a genuine hit and should refresh LRU recency.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	payload, ok := s.cache.Get(key)
	if !ok {
		w.Header().Set("X-PC-Cache", "miss")
		WriteError(w, http.StatusNotFound, errors.New("cache: no entry for key"))
		return
	}
	w.Header().Set("X-PC-Cache", "hit")
	w.Header().Set("Content-Type", "application/json")
	w.Write(payload)
}

// Health is the /healthz response body. Liveness is distinct from
// readiness: a draining daemon is still alive (200 here) but not ready
// (503 on /readyz), so load balancers and the fleet gateway stop routing
// to it without a liveness-triggered restart. The load fields
// (queue depth, inflight) feed the fleet gateway's probes.
type Health struct {
	Status     string `json:"status"`
	Accepting  bool   `json:"accepting"`
	QueueDepth int    `json:"queue_depth"`
	Inflight   int    `json:"inflight"`
	Workers    int    `json:"workers"`
}

func (s *Server) health() Health {
	g := s.gauges()
	return Health{
		Status:     "ok",
		Accepting:  g.Accepting,
		QueueDepth: g.QueueDepth,
		Inflight:   g.Inflight,
		Workers:    g.Workers,
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.health())
}

// handleReadyz reports whether the daemon accepts new jobs. During a
// drain it returns 503 with Retry-After so probes eject the backend and
// clients back off until the replacement process is up.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	if !h.Accepting {
		h.Status = "draining"
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	h.Status = "ready"
	WriteJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteText(w, s.gauges())
}
