package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"pcoup/internal/machine"
	"pcoup/internal/sim"
)

// JobState is a job's lifecycle state.
type JobState string

const (
	// JobQueued: accepted, waiting for an executor.
	JobQueued JobState = "queued"
	// JobRunning: an executor is carrying it out.
	JobRunning JobState = "running"
	// JobDone: finished with a result.
	JobDone JobState = "done"
	// JobFailed: finished with an error.
	JobFailed JobState = "failed"
	// JobCancelled: cancelled before or during execution.
	JobCancelled JobState = "cancelled"
	// JobBudgetExceeded: the simulation hit its cycle budget before
	// completing. Distinct from failed so clients (and the fuzz oracle)
	// can tell "your program ran too long" from "the toolchain broke".
	JobBudgetExceeded JobState = "budget_exceeded"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled || s == JobBudgetExceeded
}

// ErrBudgetExceeded matches (errors.Is) an error that reports a
// cycle-budget overrun without carrying the simulator's
// *sim.BudgetError — the gateway relaying a backend's budget_exceeded
// outcome. Either kind ends the job in JobBudgetExceeded.
var ErrBudgetExceeded = errors.New("cycle budget exceeded")

// Job is one submitted unit of work and its full lifecycle. Its state
// changes only through the Registry that holds it; the executor running
// it records sweep progress, cells and cache disposition.
type Job struct {
	mu sync.Mutex

	id       string
	spec     JobSpec
	tenant   string          // submitting tenant ("" when unattributed)
	cfg      *machine.Config // resolved from spec; nil = driver default
	state    JobState
	errMsg   string
	result   json.RawMessage
	cells    []json.RawMessage // per-cell payloads (sweep jobs)
	total    int               // expected cell count (sweep jobs)
	hit      bool              // served from result caches
	attempts int               // executions after journal recoveries (0: first run)
	created  time.Time
	started  time.Time
	ended    time.Time

	cancelled bool // DELETE received
	cancel    context.CancelFunc
	// release frees what the submitter reserved for the job; see NewJob.
	release func()
	// updated is closed and replaced whenever cells/state change, waking
	// stream subscribers; done is closed once on reaching a terminal
	// state.
	updated chan struct{}
	done    chan struct{}
}

// NewJob returns a queued job for a normalized spec, attributed to
// tenant ("" when unattributed); cfg is the resolved machine (nil: the
// driver default). release, when non-nil, frees what the submitter
// reserved for the job: the registry runs it exactly once if the job
// ends without starting (refused by Add, or cancelled while queued) and
// drops it when the job starts, from which point the executor owns the
// reservation. It runs under the job's lock and must not block.
func NewJob(spec JobSpec, cfg *machine.Config, tenant string, release func()) *Job {
	return &Job{
		spec: spec, cfg: cfg, tenant: tenant, release: release,
		state:   JobQueued,
		created: time.Now(),
		updated: make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// ID returns the job's registry ID (set by Add).
func (j *Job) ID() string { return j.id }

// Spec returns the job's normalized spec.
func (j *Job) Spec() JobSpec { return j.spec }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// SetTotal records a sweep job's expected cell count.
func (j *Job) SetTotal(n int) {
	j.mu.Lock()
	j.total = n
	j.mu.Unlock()
}

// SetHit records whether the job's result came from result caches.
func (j *Job) SetHit(hit bool) {
	j.mu.Lock()
	j.hit = hit
	j.mu.Unlock()
}

// AppendCell records the next sweep cell in grid order and wakes
// streamers.
func (j *Job) AppendCell(payload json.RawMessage) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cells = append(j.cells, payload)
	j.notifyLocked()
}

// notifyLocked wakes stream subscribers; callers hold j.mu.
func (j *Job) notifyLocked() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// JobView is the wire representation of a job.
type JobView struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Spec  JobSpec  `json:"spec"`
	// Tenant attributes the job to its submitter (omitted when the
	// submission carried no tenant identity). Views only — never part of
	// result payloads or NDJSON data lines, so byte-identity of cell
	// streams is unaffected.
	Tenant   string `json:"tenant,omitempty"`
	Error    string `json:"error,omitempty"`
	CacheHit bool   `json:"cache_hit"`
	// Attempts counts journal-recovery re-executions (0: never
	// interrupted).
	Attempts int `json:"attempts,omitempty"`
	// CellsDone/CellsTotal report sweep progress (0/0 otherwise).
	CellsDone  int             `json:"cells_done,omitempty"`
	CellsTotal int             `json:"cells_total,omitempty"`
	Created    time.Time       `json:"created"`
	Started    *time.Time      `json:"started,omitempty"`
	Finished   *time.Time      `json:"finished,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// View snapshots the job. withResult controls whether the (possibly
// large) result payload is included.
func (j *Job) View(withResult bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID: j.id, State: j.state, Spec: j.spec, Tenant: j.tenant, Error: j.errMsg,
		CacheHit: j.hit, Attempts: j.attempts,
		CellsDone: len(j.cells), CellsTotal: j.total,
		Created: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.ended.IsZero() {
		t := j.ended
		v.Finished = &t
	}
	if withResult {
		v.Result = j.result
	}
	return v
}

// Registry is the job table shared by the pcserved daemon and the
// pcfleet gateway: it assigns IDs and owns every job's lifecycle
// (queued → running → terminal), cancellation, listing and views. What
// differs between the two — how a running job's work is carried out —
// is the execute function each hands to Run.
type Registry struct {
	prefix  string
	onState func(*Job, JobState)

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []*Job
	nextID    int
	accepting bool
}

// NewRegistry returns an accepting registry whose job IDs read
// "<prefix>-000001", "<prefix>-000002", .... onState observes every
// transition after it happens: queued at Add, running at start, then
// the one terminal state.
func NewRegistry(prefix string, onState func(*Job, JobState)) *Registry {
	return &Registry{prefix: prefix, onState: onState, jobs: map[string]*Job{}, accepting: true}
}

// admit runs f under the registry lock while the registry accepts
// jobs, and returns ErrDraining once Close has run.
func (r *Registry) admit(f func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.accepting {
		return ErrDraining
	}
	return f()
}

// Add assigns job the next ID and registers it as queued. accept runs
// first, under the registry lock with the ID assigned: the executor
// journals or enqueues the job there, so nothing is accepted after
// Close. Its error refuses the job (the ID is then reused), and a
// refused job's release runs before Add returns.
func (r *Registry) Add(job *Job, accept func() error) error {
	err := r.admit(func() error {
		job.id = fmt.Sprintf("%s-%06d", r.prefix, r.nextID+1)
		if err := accept(); err != nil {
			return err
		}
		r.nextID++
		r.jobs[job.id] = job
		r.order = append(r.order, job)
		return nil
	})
	if err != nil {
		if job.release != nil {
			job.release()
		}
		return err
	}
	r.onState(job, JobQueued)
	return nil
}

// restore registers a job recovered under its original ID, so later IDs
// continue past it.
func (r *Registry) restore(job *Job) {
	r.mu.Lock()
	r.jobs[job.id] = job
	r.order = append(r.order, job)
	var n int
	if _, err := fmt.Sscanf(job.id, r.prefix+"-%d", &n); err == nil && n > r.nextID {
		r.nextID = n
	}
	r.mu.Unlock()
	r.onState(job, JobQueued)
}

// Get returns a job by id.
func (r *Registry) Get(id string) (*Job, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	job, ok := r.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return job, nil
}

// List snapshots all jobs in submission order.
func (r *Registry) List() []JobView {
	r.mu.Lock()
	jobs := append([]*Job(nil), r.order...)
	r.mu.Unlock()
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.View(false)
	}
	return out
}

// Cancel requests cancellation of a job. A queued job ends cancelled
// immediately and never starts; a running job's context is cancelled
// and the executor winds down (the simulator within a few thousand
// cycles, the gateway's dispatches through their request contexts).
// Cancelling a terminal job is a no-op.
func (r *Registry) Cancel(id string) (*Job, error) {
	job, err := r.Get(id)
	if err != nil {
		return nil, err
	}
	job.mu.Lock()
	job.cancelled = true // Run will not start a queued job with this set
	state, cancel := job.state, job.cancel
	job.mu.Unlock()
	switch state {
	case JobQueued:
		r.finish(job, JobCancelled, nil, "cancelled before execution")
	case JobRunning:
		cancel()
	}
	return job, nil
}

// Close stops admissions; it reports whether the registry was still
// accepting.
func (r *Registry) Close() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	was := r.accepting
	r.accepting = false
	return was
}

// Count snapshots how many jobs are in each state, and whether the
// registry still accepts jobs.
func (r *Registry) Count() (byState map[string]int, accepting bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	byState = map[string]int{}
	for _, j := range r.order {
		j.mu.Lock()
		byState[string(j.state)]++
		j.mu.Unlock()
	}
	return byState, r.accepting
}

// Run carries out a queued job: it moves the job to running under a
// context derived from parent (bounded by timeout when positive,
// cancelled by Cancel), calls execute, and ends the job in the state
// execute's error implies. A job cancelled while queued is skipped.
func (r *Registry) Run(parent context.Context, job *Job, timeout time.Duration, execute func(context.Context, *Job) (json.RawMessage, error)) {
	job.mu.Lock()
	if job.state != JobQueued || job.cancelled {
		job.mu.Unlock()
		return
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(parent, timeout)
	} else {
		ctx, cancel = context.WithCancel(parent)
	}
	defer cancel()
	job.state = JobRunning
	job.started = time.Now()
	job.cancel = cancel
	job.release = nil
	job.notifyLocked()
	job.mu.Unlock()
	r.onState(job, JobRunning)

	payload, err := execute(ctx, job)
	ran := time.Since(job.started)

	job.mu.Lock()
	cancelled := job.cancelled
	job.mu.Unlock()
	switch {
	case err == nil:
		r.finish(job, JobDone, payload, "")
	case isCancellation(err) && cancelled:
		r.finish(job, JobCancelled, nil, "cancelled")
	case errors.Is(err, context.DeadlineExceeded):
		r.finish(job, JobFailed, nil, fmt.Sprintf("deadline exceeded after %s", ran.Round(time.Millisecond)))
	case isCancellation(err):
		// The executor's parent context ended: shutdown.
		r.finish(job, JobCancelled, nil, "cancelled by shutdown")
	case isBudgetExceeded(err):
		r.finish(job, JobBudgetExceeded, nil, err.Error())
	default:
		r.finish(job, JobFailed, nil, err.Error())
	}
}

// finish moves the job to a terminal state exactly once. It is the only
// way a job ends, so the release of a job that never started runs here.
func (r *Registry) finish(job *Job, state JobState, result json.RawMessage, errMsg string) {
	job.mu.Lock()
	if job.state.Terminal() {
		job.mu.Unlock()
		return
	}
	job.state = state
	job.result = result
	job.errMsg = errMsg
	job.ended = time.Now()
	if job.release != nil {
		job.release()
		job.release = nil
	}
	job.notifyLocked()
	close(job.done)
	job.mu.Unlock()
	r.onState(job, state)
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// isBudgetExceeded reports whether err is a cycle-budget overrun — a
// property of the submitted work, not a service fault, so it gets its
// own terminal state.
func isBudgetExceeded(err error) bool {
	var be *sim.BudgetError
	return errors.As(err, &be) || errors.Is(err, ErrBudgetExceeded)
}
