// Package tenant is the multi-tenant identity and admission-control
// layer for the fleet gateway: API-key authentication, per-tenant
// fair-share weights and priority classes consumed by the gateway's
// deficit-round-robin dispatcher, and per-tenant quotas (queued cells,
// in-flight cells, a cells/sec token bucket) enforced at submission.
//
// The package mirrors the paper's split one level up: tenant placement
// is static (config file, loaded once), while the arbitration among
// tenants for shared backends happens at runtime, request by request.
package tenant

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Class is a tenant's scheduling priority class. Interactive work is
// always served before batch work; within a class, tenants share by
// DRR weight.
type Class string

const (
	// Interactive: latency-sensitive work, strictly prioritized.
	Interactive Class = "interactive"
	// Batch: throughput work, served from leftover capacity and shed
	// first under overload.
	Batch Class = "batch"
)

// NumClasses is the number of priority classes (array sizing).
const NumClasses = 2

// Index maps the class to its strict-priority rank (0 served first).
func (c Class) Index() int {
	if c == Batch {
		return 1
	}
	return 0
}

// Classes lists every class in priority order.
func Classes() []Class { return []Class{Interactive, Batch} }

// ErrUnauthorized: the request carries no API key, or an unknown one.
var ErrUnauthorized = errors.New("tenant: missing or unknown API key")

// Spec is one tenant's configuration entry in the tenants file (a JSON
// array of these objects, see configs/tenants.example.json).
type Spec struct {
	// Name labels the tenant in journal records, job views, and metrics.
	Name string `json:"name"`
	// Key is the API key presented as "Authorization: Bearer <key>" (or
	// the X-PC-Tenant-Key header).
	Key string `json:"key"`
	// Weight is the DRR fair share within the tenant's class (default 1).
	Weight int `json:"weight,omitempty"`
	// Class is "interactive" (default) or "batch".
	Class Class `json:"class,omitempty"`
	// MaxInflightCells caps the tenant's concurrently dispatched cells
	// (0: unlimited). Enforced by the dispatcher, not at admission, so a
	// burst queues rather than fails.
	MaxInflightCells int `json:"max_inflight_cells,omitempty"`
	// MaxQueuedCells caps the tenant's cells admitted but not yet
	// dispatched (0: unlimited). Exceeding it is a 429.
	MaxQueuedCells int `json:"max_queued_cells,omitempty"`
	// CellsPerSec is the token-bucket refill rate (0: unlimited).
	CellsPerSec float64 `json:"cells_per_sec,omitempty"`
	// Burst is the bucket capacity (default: max(1, ceil(CellsPerSec))).
	Burst float64 `json:"burst,omitempty"`
}

// QuotaError is an admission rejection: the HTTP layer renders it as
// 429 Too Many Requests with a Retry-After header.
type QuotaError struct {
	Tenant     string
	Class      Class
	Reason     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("tenant %s: %s (retry after %s)", e.Tenant, e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// RetryAfterSeconds renders the wait as whole seconds for the
// Retry-After header (minimum 1: zero would invite an immediate retry).
func (e *QuotaError) RetryAfterSeconds() int {
	s := int(math.Ceil(e.RetryAfter.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// Tenant is one authenticated principal: identity, fair-share
// parameters, and live accounting. All methods are safe for concurrent
// use.
type Tenant struct {
	name        string
	key         string
	weight      int
	class       Class
	maxInflight int
	maxQueued   int
	rate        float64 // cells/sec; 0 = unlimited
	burst       float64

	queued   atomic.Int64 // cells admitted, not yet dispatched
	inflight atomic.Int64 // cells currently dispatched

	mu     sync.Mutex // token bucket
	tokens float64
	last   time.Time
	now    func() time.Time // test hook
}

// New validates a spec and builds the tenant.
func New(s Spec) (*Tenant, error) {
	if s.Name == "" {
		return nil, errors.New("tenant: name is required")
	}
	if s.Weight < 0 || s.MaxInflightCells < 0 || s.MaxQueuedCells < 0 || s.CellsPerSec < 0 || s.Burst < 0 {
		return nil, fmt.Errorf("tenant %s: negative limits", s.Name)
	}
	switch s.Class {
	case "", Interactive, Batch:
	default:
		return nil, fmt.Errorf("tenant %s: unknown class %q (interactive|batch)", s.Name, s.Class)
	}
	t := &Tenant{
		name:        s.Name,
		key:         s.Key,
		weight:      s.Weight,
		class:       s.Class,
		maxInflight: s.MaxInflightCells,
		maxQueued:   s.MaxQueuedCells,
		rate:        s.CellsPerSec,
		burst:       s.Burst,
		now:         time.Now,
	}
	if t.weight == 0 {
		t.weight = 1
	}
	if t.class == "" {
		t.class = Interactive
	}
	if t.rate > 0 && t.burst == 0 {
		t.burst = math.Max(1, math.Ceil(t.rate))
	}
	t.tokens = t.burst
	t.last = t.now()
	return t, nil
}

// Name returns the tenant's label.
func (t *Tenant) Name() string { return t.name }

// Weight returns the DRR fair share within the class.
func (t *Tenant) Weight() int { return t.weight }

// Class returns the priority class.
func (t *Tenant) Class() Class { return t.class }

// Queued returns cells admitted but not yet dispatched.
func (t *Tenant) Queued() int { return int(t.queued.Load()) }

// Inflight returns cells currently dispatched.
func (t *Tenant) Inflight() int { return int(t.inflight.Load()) }

// Admit reserves n queued cells against the tenant's quotas: the queued
// cap, then the token bucket. On success the queued count is raised by n
// (release it cell by cell with SubQueued as work dispatches, or all at
// once on a failed launch). On rejection nothing is reserved.
func (t *Tenant) Admit(n int) *QuotaError {
	if n <= 0 {
		return nil
	}
	if t.maxQueued > 0 {
		for {
			q := t.queued.Load()
			if int(q)+n > t.maxQueued {
				return &QuotaError{
					Tenant: t.name, Class: t.class,
					Reason:     fmt.Sprintf("queued-cell quota: %d queued + %d requested > %d", q, n, t.maxQueued),
					RetryAfter: time.Second,
				}
			}
			if t.queued.CompareAndSwap(q, q+int64(n)) {
				break
			}
		}
	} else {
		t.queued.Add(int64(n))
	}
	if err := t.takeTokens(n); err != nil {
		t.queued.Add(-int64(n))
		return err
	}
	return nil
}

// takeTokens debits n cells from the token bucket. A submission is
// admitted whenever at least one whole token is available; the full n is
// then debited (the balance may go negative), so a large sweep is never
// unadmittable yet the long-run rate still converges to CellsPerSec.
func (t *Tenant) takeTokens(n int) *QuotaError {
	if t.rate <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.tokens += now.Sub(t.last).Seconds() * t.rate
	if t.tokens > t.burst {
		t.tokens = t.burst
	}
	t.last = now
	if t.tokens < 1 {
		wait := time.Duration((1 - t.tokens) / t.rate * float64(time.Second))
		return &QuotaError{
			Tenant: t.name, Class: t.class,
			Reason:     fmt.Sprintf("rate limit: %.3g cells/sec", t.rate),
			RetryAfter: wait,
		}
	}
	t.tokens -= float64(n)
	return nil
}

// SubQueued releases n reserved queued cells (dispatch or abort).
func (t *Tenant) SubQueued(n int) {
	if n > 0 {
		t.queued.Add(-int64(n))
	}
}

// TryAcquireInflight reserves one in-flight cell slot, honoring
// MaxInflightCells; false means the tenant is at its cap and the cell
// must stay queued.
func (t *Tenant) TryAcquireInflight() bool {
	if t.maxInflight <= 0 {
		t.inflight.Add(1)
		return true
	}
	for {
		c := t.inflight.Load()
		if int(c) >= t.maxInflight {
			return false
		}
		if t.inflight.CompareAndSwap(c, c+1) {
			return true
		}
	}
}

// ReleaseInflight returns one in-flight slot.
func (t *Tenant) ReleaseInflight() { t.inflight.Add(-1) }

// setNow installs a fake clock (tests).
func (t *Tenant) setNow(now func() time.Time) {
	t.mu.Lock()
	t.now = now
	t.last = now()
	t.mu.Unlock()
}

// Registry resolves API keys to tenants. With no tenants configured it
// runs open: every request maps to a single unlimited "default" tenant
// and no key is required.
type Registry struct {
	byKey    map[string]*Tenant
	list     []*Tenant
	fallback *Tenant // open mode only
}

// Open returns the no-auth registry with one unlimited default tenant.
func Open() *Registry {
	def, _ := New(Spec{Name: "default"})
	return &Registry{byKey: map[string]*Tenant{}, list: []*Tenant{def}, fallback: def}
}

// NewRegistry builds a closed registry from specs: every request must
// present one of the configured keys.
func NewRegistry(specs []Spec) (*Registry, error) {
	if len(specs) == 0 {
		return nil, errors.New("tenant: empty tenant list")
	}
	r := &Registry{byKey: map[string]*Tenant{}}
	names := map[string]bool{}
	for _, s := range specs {
		t, err := New(s)
		if err != nil {
			return nil, err
		}
		if s.Key == "" {
			return nil, fmt.Errorf("tenant %s: key is required", s.Name)
		}
		if names[t.name] {
			return nil, fmt.Errorf("tenant %s: duplicate name", t.name)
		}
		if _, dup := r.byKey[s.Key]; dup {
			return nil, fmt.Errorf("tenant %s: key already assigned", t.name)
		}
		names[t.name] = true
		r.byKey[s.Key] = t
		r.list = append(r.list, t)
	}
	sort.Slice(r.list, func(i, j int) bool { return r.list[i].name < r.list[j].name })
	return r, nil
}

// Load reads a tenants JSON file (an array of Spec objects).
func Load(path string) (*Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var specs []Spec
	if err := json.Unmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("tenant: parsing %s: %w", path, err)
	}
	r, err := NewRegistry(specs)
	if err != nil {
		return nil, fmt.Errorf("tenant: %s: %w", path, err)
	}
	return r, nil
}

// Required reports whether requests must present an API key.
func (r *Registry) Required() bool { return r.fallback == nil }

// Default returns the open-mode fallback tenant (nil when keys are
// required).
func (r *Registry) Default() *Tenant { return r.fallback }

// All lists every tenant, name-sorted. The slice is shared; do not
// mutate.
func (r *Registry) All() []*Tenant { return r.list }

// Lookup resolves an API key.
func (r *Registry) Lookup(key string) (*Tenant, bool) {
	t, ok := r.byKey[key]
	return t, ok
}

// FromRequest authenticates an HTTP request: "Authorization: Bearer
// <key>" or "X-PC-Tenant-Key: <key>". In open mode the default tenant
// is returned regardless of headers; in closed mode a missing or
// unknown key is ErrUnauthorized.
func (r *Registry) FromRequest(req *http.Request) (*Tenant, error) {
	if r.fallback != nil {
		return r.fallback, nil
	}
	key := ""
	if auth := req.Header.Get("Authorization"); auth != "" {
		if rest, ok := strings.CutPrefix(auth, "Bearer "); ok {
			key = rest
		}
	}
	if key == "" {
		key = req.Header.Get("X-PC-Tenant-Key")
	}
	if key == "" {
		return nil, ErrUnauthorized
	}
	t, ok := r.byKey[key]
	if !ok {
		return nil, ErrUnauthorized
	}
	return t, nil
}

// ctxKey keys the authenticated tenant in a request context.
type ctxKey struct{}

// NewContext attaches the authenticated tenant to a request context.
func NewContext(ctx context.Context, t *Tenant) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the tenant attached by NewContext (nil if none).
func FromContext(ctx context.Context) *Tenant {
	t, _ := ctx.Value(ctxKey{}).(*Tenant)
	return t
}
