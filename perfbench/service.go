package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pcoup/internal/compiler"
	"pcoup/internal/experiments"
	"pcoup/internal/fleet"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/oracle"
	"pcoup/internal/progfuzz"
	"pcoup/internal/service"
	"pcoup/internal/sim"
)

// serviceMix is the service-mix workload: an in-process pcfleet gateway
// in front of two in-process pcserved backends over loopback HTTP,
// driven by two closed-loop clients with one connection each. Client A
// posts seeded progfuzz programs to POST /v1/programs; client B posts
// seeded unit-mix sweeps to POST /v1/jobs. Both follow each job's
// NDJSON stream to its terminal state.
type serviceMix struct {
	seed  int64
	tiny  bool
	refs  map[string]reference
	gen   *rand.Rand
	roles []byte // rest of the current block of programRoles
	progs []*progInput
	stack *stack
	used  bool // stack has served a measurement (caches are warm)
}

// progInput is one client A submission.
type progInput struct {
	src string
	// origin is the index of the program a resubmission repeats (with
	// whitespace and comments changed); -1 for an original.
	origin int
	// want digests the reference interpreter's globals; "" until
	// computed (after the measurement window, outside timing).
	want string
}

// programPool is how many program sources set-up generates; a run
// needing more generates them as it goes, between operations.
const programPool = 5000

// wideArraySize caps the arrays of wide programs, as pcq flood -wide
// does. Their parallel loops span whole arrays, giving hundreds of
// threads; the few that exceed the service's 512-thread limit must be
// refused with 422 (checked after the window). A wide share of the
// tail keeps program_ms_p99 inside a dense part of the latency
// distribution, so it varies less between seeds.
const wideArraySize = 256

func newServiceMix(o *options) (workload, error) {
	refs, err := loadReferences(o.refs)
	if err != nil {
		return nil, err
	}
	w := &serviceMix{seed: o.seed, tiny: o.tiny, refs: refs, gen: rand.New(rand.NewSource(o.seed))}
	if w.stack, err = startStack(); err != nil {
		return nil, err
	}
	n := programPool
	if o.tiny {
		n = 20
	}
	for len(w.progs) < n {
		w.nextProgram()
	}
	return w, nil
}

func (w *serviceMix) close() {
	if w.stack != nil {
		w.stack.stop()
		w.stack = nil
	}
}

// programRoles is one block of the program sequence: 5 resubmissions,
// 3 wide and 12 ordinary originals in every 20 programs, shuffled per
// block. Fixed counts keep every seed's mix alike.
var programRoles = []byte("RRRRRWWWNNNNNNNNNNNN")

// nextProgram extends the seeded program sequence by one. A quarter are
// resubmissions of an earlier program; a fifth of the originals are wide
// (hundreds of threads).
func (w *serviceMix) nextProgram() *progInput {
	i := len(w.progs)
	if len(w.roles) == 0 {
		w.roles = append([]byte(nil), programRoles...)
		w.gen.Shuffle(len(w.roles), func(a, b int) { w.roles[a], w.roles[b] = w.roles[b], w.roles[a] })
	}
	role := w.roles[0]
	w.roles = w.roles[1:]
	var p *progInput
	switch {
	case role == 'R' && i > 0:
		j := w.gen.Intn(i)
		if w.progs[j].origin >= 0 {
			j = w.progs[j].origin
		}
		p = &progInput{src: reformat(w.progs[j].src, i), origin: j}
	case role == 'W':
		opts := progfuzz.GenOptions{MaxArraySize: wideArraySize, WideForall: true}
		p = &progInput{src: progfuzz.GenerateOpts(w.seed*1_000_003+int64(i), opts), origin: -1}
	default:
		p = &progInput{src: progfuzz.Generate(w.seed*1_000_003 + int64(i)), origin: -1}
	}
	w.progs = append(w.progs, p)
	return p
}

// reformat changes a program's whitespace and comments but not its
// forms, so the service must serve it from the cache.
func reformat(src string, i int) string {
	return fmt.Sprintf("; resubmission %d\n%s\n; end\n", i, strings.ReplaceAll(src, "\n", "\n   "))
}

// oracleDigest is the digest of program i's globals on the reference
// interpreter (a resubmission shares its original's).
func (w *serviceMix) oracleDigest(i int) (string, error) {
	p := w.progs[i]
	if p.origin >= 0 {
		p = w.progs[p.origin]
	}
	if p.want == "" {
		globals, err := oracle.Run(p.src)
		if err != nil {
			return "", fmt.Errorf("reference interpreter: %w", err)
		}
		rendered := map[string][]string{}
		for name, vals := range globals {
			if strings.HasPrefix(name, "_") {
				continue // hidden synchronization cells
			}
			s := make([]string, len(vals))
			for k, v := range vals {
				s[k] = v.String()
			}
			rendered[name] = s
		}
		p.want = globalsDigest(rendered)
	}
	return p.want, nil
}

// globalsDigest hashes globals in name order, values as the service
// renders them.
func globalsDigest(globals map[string][]string) string {
	names := make([]string, 0, len(globals))
	for name := range globals {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s=%s\n", name, strings.Join(globals[name], ","))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// progResult is a program's outcome, checked after the window: the
// digest of its globals, refused (422), or out of cycle budget.
type progResult struct {
	idx        int
	digest     string
	refused    bool
	overBudget bool
}

// checkPrograms compares each program result with the reference
// interpreter, and checks that each refused or out-of-budget program
// really exceeds the service's compile limits or cycle budget. It runs
// after the measurement window.
func (w *serviceMix) checkPrograms(g *gate, results []progResult) {
	for _, r := range results {
		var err error
		switch {
		case r.refused:
			if !overLimits(w.progs[r.idx].src) {
				err = fmt.Errorf("refused with 422 but within the service's limits")
			}
		case r.overBudget:
			if !overBudget(w.progs[r.idx].src) {
				err = fmt.Errorf("ended budget_exceeded but completes within the service's cycle budget")
			}
		default:
			var want string
			want, err = w.oracleDigest(r.idx)
			if err == nil && r.digest != want {
				err = fmt.Errorf("globals differ from the reference interpreter")
			}
		}
		if err != nil {
			g.fail("program %d: %v", r.idx, err)
			continue
		}
		g.ok()
	}
}

// overLimits reports whether src exceeds the service's compile limits
// (compiler.ServiceLimits), for which a 422 is the correct answer.
func overLimits(src string) bool {
	_, _, err := compiler.CompileBounded(context.Background(), src, machine.Baseline(),
		compiler.Options{Mode: experiments.CompilerMode(experiments.COUPLED)}, compiler.ServiceLimits())
	return compiler.IsResourceLimit(err)
}

// overBudget reports whether src runs past the service's default cycle
// budget, for which budget_exceeded is the correct answer.
func overBudget(src string) bool {
	cfg := machine.Baseline()
	prog, _, err := compiler.Compile(src, cfg, compiler.Options{Mode: experiments.CompilerMode(experiments.COUPLED)})
	if err != nil {
		return false
	}
	s, err := sim.New(cfg, prog)
	if err != nil {
		return false
	}
	defer s.Release()
	_, err = s.Run(service.DefaultProgramCycles)
	var be *sim.BudgetError
	return errors.As(err, &be)
}

// sweepPlan returns client B's seeded sweep sequence. It opens with
// one full unit grid per (benchmark, mode) pair in seeded order, so
// every seed computes the same cold cells, and continues with random
// overlapping sweeps: a benchmark subset, Coupled or TPE, IU and FPU
// ranges within 1..4, which the result caches then serve.
func sweepPlan(seed int64, tiny bool) func() service.SweepSpec {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	benches, top := benchOrder, 4
	if tiny {
		benches, top = []string{"model"}, 2
	}
	modes := []experiments.Mode{experiments.COUPLED, experiments.TPE}
	var cold []service.SweepSpec
	for _, b := range benches {
		for _, m := range modes {
			cold = append(cold, service.SweepSpec{Benches: []string{b}, Mode: string(m), MinIU: 1, MaxIU: top, MinFPU: 1, MaxFPU: top})
		}
	}
	r.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	return func() service.SweepSpec {
		if len(cold) > 0 {
			sw := cold[0]
			cold = cold[1:]
			return sw
		}
		var sub []string
		for len(sub) == 0 {
			for _, b := range benches {
				if r.Intn(2) == 0 {
					sub = append(sub, b)
				}
			}
		}
		iu0 := 1 + r.Intn(top)
		iu1 := iu0 + r.Intn(top-iu0+1)
		fpu0 := 1 + r.Intn(top)
		fpu1 := fpu0 + r.Intn(top-fpu0+1)
		return service.SweepSpec{Benches: sub, Mode: string(modes[r.Intn(2)]), MinIU: iu0, MaxIU: iu1, MinFPU: fpu0, MaxFPU: fpu1}
	}
}

// clientStats is one client's closed-loop record.
type clientStats struct {
	ops     int
	cells   int
	cycles  int64
	lat     []float64 // ms per operation
	elapsed time.Duration
}

// measure runs both clients for d against a stack with empty caches
// (the set-up stack for the first measurement, a fresh one after).
func (w *serviceMix) measure(d time.Duration, tr *tracer) (*outcome, error) {
	if w.used {
		w.stack.stop()
		var err error
		if w.stack, err = startStack(); err != nil {
			return nil, err
		}
	}
	w.used = true
	w.stack.tap.tr.Store(tr)
	defer w.stack.tap.tr.Store(nil)

	g := &gate{}
	var a, b clientStats
	var results []progResult
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a, results = w.clientA(d, g, tr) }()
	go func() { defer wg.Done(); b = w.clientB(d, g, tr) }()
	wg.Wait()
	// Program outputs are checked now, outside timing.
	w.checkPrograms(g, results)
	wall := max(a.elapsed, b.elapsed).Seconds()
	return &outcome{
		gate: g,
		figures: []figure{
			{"program_ms_p50", quantile(a.lat, 0.50), "ms", len(a.lat)},
			{"program_ms_p99", quantile(a.lat, 0.99), "ms", len(a.lat)},
			{"sweep_cells_per_s", float64(b.cells) / b.elapsed.Seconds(), "1/s", b.cells},
			{"simcycles_per_s", float64(a.cycles+b.cycles) / wall, "cycles/s", a.ops + b.ops},
		},
	}, nil
}

// clientA is the program client.
func (w *serviceMix) clientA(d time.Duration, g *gate, tr *tracer) (clientStats, []progResult) {
	c := newClient()
	defer c.CloseIdleConnections()
	var st clientStats
	var results []progResult
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		for i >= len(w.progs) {
			w.nextProgram()
		}
		p := w.progs[i]
		body, _ := json.Marshal(service.ProgramRequest{ProgramSpec: service.ProgramSpec{Source: p.src}})
		op := tr.begin("client program", 0, strconv.Itoa(i))
		t0 := time.Now()
		id, data, err := w.stack.submitAndFollow(c, tr, op.id(), "/v1/programs", body)
		lat := time.Since(t0)
		tr.endWith(op, id, 0)
		st.ops++
		st.lat = append(st.lat, float64(lat)/float64(time.Millisecond))
		// A refusal (422) or budget_exceeded is checked after the
		// window: only a program beyond the service's limits may get one.
		var se *statusError
		var ee *endError
		switch {
		case errors.As(err, &se) && se.code == http.StatusUnprocessableEntity:
			results = append(results, progResult{idx: i, refused: true})
			continue
		case errors.As(err, &ee) && ee.state == service.JobBudgetExceeded:
			results = append(results, progResult{idx: i, overBudget: true})
			continue
		}
		if err != nil {
			g.fail("program %d: %v", i, err)
			continue
		}
		var res service.ProgramResult
		if len(data) != 1 {
			g.fail("program %d: %d result lines, want 1", i, len(data))
			continue
		}
		if err := json.Unmarshal(data[0], &res); err != nil {
			g.fail("program %d: bad result: %v", i, err)
			continue
		}
		st.cycles += res.Cycles
		if p.origin >= 0 {
			if err := w.stack.expectCacheHit(c, id); err != nil {
				g.fail("program %d (resubmission of %d): %v", i, p.origin, err)
				continue
			}
		}
		results = append(results, progResult{idx: i, digest: globalsDigest(res.Globals)})
	}
	st.elapsed = time.Since(start)
	return st, results
}

// clientB is the sweep client.
func (w *serviceMix) clientB(d time.Duration, g *gate, tr *tracer) clientStats {
	c := newClient()
	defer c.CloseIdleConnections()
	next := sweepPlan(w.seed, w.tiny)
	var st clientStats
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		sw := next()
		body, _ := json.Marshal(service.JobSpec{Sweep: &sw})
		op := tr.begin("client sweep", 0, strconv.Itoa(i))
		id, data, err := w.stack.submitAndFollow(c, tr, op.id(), "/v1/jobs", body)
		tr.endWith(op, id, 0)
		st.ops++
		if err != nil {
			g.fail("sweep %d: %v", i, err)
			continue
		}
		for _, line := range data {
			st.cells++
			var cr service.CellResult
			if err := json.Unmarshal(line, &cr); err != nil {
				g.fail("sweep %d: bad cell: %v", i, err)
				continue
			}
			st.cycles += cr.Cycles
			c := cell{cr.Bench, experiments.Mode(cr.Mode), fmt.Sprintf("mix%d%d", cr.IUs, cr.FPUs), "Min", 0, "-"}
			g.check(checkCell(g, w.refs, c, cr.Cycles, cr.Ops, ""))
		}
	}
	st.elapsed = time.Since(start)
	return st
}

// newClient is one closed-loop client: a single keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// stack is the booted fleet: two backends and the gateway.
type stack struct {
	tap      *tap
	backends []*service.Server
	servers  []*http.Server
	gw       *fleet.Gateway
	url      string
	done     sync.WaitGroup
}

// startStack boots two pcserved backends and a pcfleet gateway on
// loopback listeners, with the backends' handlers behind the timing tap,
// and waits until the gateway reports ready.
func startStack() (*stack, error) {
	s := &stack{tap: &tap{}}
	var urls []string
	for i := 0; i < 2; i++ {
		srv := service.New(service.Options{})
		if err := srv.Start(); err != nil {
			s.stop()
			return nil, err
		}
		s.backends = append(s.backends, srv)
		url, err := s.serve(s.tap.wrap(fmt.Sprintf("b%d", i), srv.Handler()))
		if err != nil {
			s.stop()
			return nil, err
		}
		urls = append(urls, url)
	}
	gw, err := fleet.New(fleet.Options{Pool: fleet.PoolOptions{Backends: urls, ProbeInterval: 200 * time.Millisecond}})
	if err == nil {
		err = gw.Start()
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	s.gw = gw
	if s.url, err = s.serve(gw.Handler()); err != nil {
		s.stop()
		return nil, err
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("gateway not ready after 10s")
		}
	}
}

// serve serves h on a fresh loopback listener.
func (s *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	s.servers = append(s.servers, hs)
	s.done.Add(1)
	go func() { defer s.done.Done(); hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// stop shuts the gateway, the backends and their HTTP servers down and
// waits for them.
func (s *stack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.gw != nil {
		s.gw.Shutdown(ctx)
	}
	for _, b := range s.backends {
		b.Shutdown(ctx)
	}
	for _, hs := range s.servers {
		hs.Shutdown(ctx)
	}
	s.done.Wait()
}

// submitAndFollow posts body to path, then follows the job's stream to
// its terminal line. It returns the job id and the data lines; a
// non-2xx response or a terminal state other than done is an error.
func (s *stack) submitAndFollow(c *http.Client, tr *tracer, parent int, path string, body []byte) (string, [][]byte, error) {
	ps := tr.begin("client POST "+path, parent, "")
	resp, err := c.Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(ps)
		return "", nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(ps)
	if err != nil {
		return "", nil, err
	}
	if resp.StatusCode/100 != 2 {
		return "", nil, &statusError{path, resp.StatusCode, string(bytes.TrimSpace(raw))}
	}
	var view service.JobView
	if err := json.Unmarshal(raw, &view); err != nil {
		return "", nil, err
	}
	ss := tr.begin("client GET /v1/jobs/{id}/stream", parent, view.ID)
	defer tr.end(ss)
	resp, err = c.Get(s.url + "/v1/jobs/" + view.ID + "/stream")
	if err != nil {
		return view.ID, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return view.ID, nil, fmt.Errorf("stream %s: %d", view.ID, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 64<<20)
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		return view.ID, nil, err
	}
	if len(lines) == 0 {
		return view.ID, nil, fmt.Errorf("stream %s: empty", view.ID)
	}
	var final struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil || final.State != string(service.JobDone) {
		return view.ID, nil, &endError{view.ID, service.JobState(final.State), final.Error}
	}
	return view.ID, lines[:len(lines)-1], nil
}

// endError is a job that reached a terminal state other than done.
type endError struct {
	id    string
	state service.JobState
	msg   string
}

func (e *endError) Error() string { return fmt.Sprintf("job %s ended %q: %s", e.id, e.state, e.msg) }

// statusError is a non-2xx submission response.
type statusError struct {
	path string
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("POST %s: %d %s", e.path, e.code, e.body) }

// expectCacheHit checks that the gateway served job id from a cache.
func (s *stack) expectCacheHit(c *http.Client, id string) error {
	resp, err := c.Get(s.url + "/v1/jobs/" + id)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var view service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return err
	}
	if !view.CacheHit {
		return fmt.Errorf("job %s: resubmitted program was not a cache hit", id)
	}
	return nil
}

// gatewayMetrics scrapes the gateway's /metrics into name → value
// (unlabelled samples only).
func (s *stack) gatewayMetrics() (map[string]float64, error) {
	resp, err := http.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// tap is the timing middleware in front of each backend's Handler. With
// no tracer stored it forwards untouched; with one it records a span per
// request, tagged with the backend job it concerns and its kind.
type tap struct {
	tr    atomic.Pointer[tracer]
	kinds sync.Map // "b0/j-000001" → "program" or "sweep"
}

func (t *tap) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := t.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		submit := r.Method == http.MethodPost && r.URL.Path == "/v1/jobs"
		sp := tr.begin("backend "+r.Method+" "+routeOf(r.URL.Path), 0, "")
		rec := &recorder{ResponseWriter: w, keep: submit}
		h.ServeHTTP(rec, r)
		var id string
		if submit {
			var v struct {
				ID   string `json:"id"`
				Spec struct {
					Program json.RawMessage `json:"program"`
				} `json:"spec"`
			}
			json.Unmarshal(rec.body.Bytes(), &v)
			id = name + "/" + v.ID
			kind := "sweep"
			if len(v.Spec.Program) > 0 {
				kind = "program"
			}
			t.kinds.Store(id, kind)
		} else if rest, ok := strings.CutPrefix(r.URL.Path, "/v1/jobs/"); ok {
			id = name + "/" + strings.TrimSuffix(rest, "/stream")
		}
		job := ""
		if id != "" {
			kind, _ := t.kinds.Load(id)
			job = fmt.Sprintf("%v:%s", kind, id)
		}
		tr.endWith(sp, job, rec.n)
	})
}

// routeOf maps a request path onto its route pattern.
func routeOf(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/jobs/") && strings.HasSuffix(path, "/stream"):
		return "/v1/jobs/{id}/stream"
	case strings.HasPrefix(path, "/v1/jobs/"):
		return "/v1/jobs/{id}"
	case strings.HasPrefix(path, "/v1/cache/"):
		return "/v1/cache/{key}"
	}
	return path
}

// recorder counts response bytes (keeping them when keep is set) and
// passes flushes through, so streams still stream.
type recorder struct {
	http.ResponseWriter
	keep bool
	body bytes.Buffer
	n    int64
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.keep {
		r.body.Write(b)
	}
	n, err := r.ResponseWriter.Write(b)
	r.n += int64(n)
	return n, err
}

func (r *recorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// errOverLimits marks a program the service rightly refuses or stops at
// its cycle budget; the replay skips it.
var errOverLimits = errors.New("program exceeds the service's limits")

// replayProgram times JobSpec.Normalize on program i (the gateway's
// validation, returned in µs), then replays the program through
// sexpr.Parse, compiler.CompileForms, sim.New and Run under spans and
// checks its globals against the reference interpreter.
func (w *serviceMix) replayProgram(tr *tracer, rp *replay, i int) (float64, error) {
	src := w.progs[i].src
	spec := service.JobSpec{Program: &service.ProgramSpec{Source: src}}
	t0 := time.Now()
	_, err := spec.Normalize(map[string]*machine.Config{"baseline": machine.Baseline()})
	us := float64(time.Since(t0)) / float64(time.Microsecond)
	if compiler.IsResourceLimit(err) {
		return 0, errOverLimits
	}
	if err != nil {
		return 0, fmt.Errorf("validate: %w", err)
	}
	job := "program-" + strconv.Itoa(i)
	root := tr.begin("replay", 0, job)
	defer tr.end(root)
	cfg := machine.Baseline()
	prog, err := rp.compile(tr, root.id(), job, src, cfg, compiler.Options{Mode: experiments.CompilerMode(experiments.COUPLED)})
	if err != nil {
		return 0, fmt.Errorf("compile: %w", err)
	}
	s, _, _, err := rp.simulate(tr, root.id(), job, cfg, prog, service.DefaultProgramCycles)
	var be *sim.BudgetError
	if errors.As(err, &be) {
		return 0, errOverLimits
	}
	if err != nil {
		return 0, err
	}
	got := globalsOf(prog, s)
	s.Release()
	w.checkPrograms(rp.g, []progResult{{idx: i, digest: globalsDigest(got)}})
	return us, nil
}

// globalsOf renders a finished simulation's declared globals as the
// service renders them in a program result.
func globalsOf(prog *isa.Program, s *sim.Sim) map[string][]string {
	out := map[string][]string{}
	for _, d := range prog.Data {
		if strings.HasPrefix(d.Name, "_") {
			continue // hidden synchronization cells
		}
		vals := make([]string, len(d.Values))
		for k := range d.Values {
			v, _ := s.Memory().Peek(d.Addr + int64(k))
			vals[k] = v.String()
		}
		out[d.Name] = vals
	}
	return out
}

// layers derives the service, fleet, sexpr, compiler and sim figures of
// the traced measurement. Backend spans are attributed to the client
// program whose time span they fall in (client A is the only program
// submitter and runs one program at a time).
func (w *serviceMix) layers(tr *tracer, traced, untraced *outcome) ([]figure, error) {
	const submit, stream = "backend POST /v1/jobs", "backend GET /v1/jobs/{id}/stream"
	var submitMS, execMS, payload []float64
	var programSpans []span
	for _, name := range []string{submit, stream, "backend GET /v1/jobs/{id}", "backend DELETE /v1/jobs/{id}"} {
		for _, s := range tr.named(name) {
			if !strings.HasPrefix(s.Job, "program:") {
				continue
			}
			programSpans = append(programSpans, s)
			ms := float64(s.dur()) / float64(time.Millisecond)
			switch name {
			case submit:
				submitMS = append(submitMS, ms)
			case stream:
				execMS = append(execMS, ms)
				payload = append(payload, float64(s.N))
			}
		}
	}
	sort.Slice(programSpans, func(i, j int) bool { return programSpans[i].Start.Before(programSpans[j].Start) })
	var self []float64
	for _, op := range tr.named("client program") {
		backend := time.Duration(0)
		for _, s := range programSpans {
			if s.Start.Before(op.Start) || s.End.After(op.End) {
				continue
			}
			backend += s.dur()
		}
		self = append(self, float64(op.dur()-backend)/float64(time.Millisecond))
	}
	// Backend requests caused by jobs: everything but health probes.
	var rpcs int
	tr.mu.Lock()
	for _, s := range tr.spans {
		if strings.HasPrefix(s.Name, "backend ") && !strings.HasSuffix(s.Name, "z") {
			rpcs++
		}
	}
	tr.mu.Unlock()
	jobs := len(tr.named("client program")) + len(tr.named("client sweep"))

	var hits, misses int64
	for _, b := range w.stack.backends {
		h, m := b.Cache().Stats()
		hits += h
		misses += m
	}
	gm, err := w.stack.gatewayMetrics()
	if err != nil {
		return nil, err
	}

	// Replay each original program of the traced measurement through the
	// module entry points, and time the gateway's validation directly.
	rp := replay{g: traced.gate, refs: w.refs}
	var validate []float64
	for i, op := range tr.named("client program") {
		if w.progs[i].origin >= 0 {
			continue
		}
		us, err := w.replayProgram(tr, &rp, i)
		if errors.Is(err, errOverLimits) {
			continue
		}
		if err != nil {
			rp.g.fail("program %d (%s): %v", i, op.Job, err)
			continue
		}
		validate = append(validate, us)
	}

	lookups, fills, _ := experiments.ProgCacheStats()
	figs := rp.figures(tr)
	figs = append(figs,
		figure{"experiments.progcache_hit_ratio", ratio(float64(lookups-fills), float64(lookups)), "ratio", int(lookups)},
		figure{"service.submit_ms", median(submitMS), "ms", len(submitMS)},
		figure{"service.exec_ms", median(execMS), "ms", len(execMS)},
		figure{"service.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio", int(hits + misses)},
		figure{"service.payload_bytes", median(payload), "bytes", len(payload)},
		figure{"fleet.gateway_self_ms", median(self), "ms", len(self)},
		figure{"fleet.validate_us", median(validate), "us", len(validate)},
		figure{"fleet.backend_rpcs_per_job", ratio(float64(rpcs), float64(jobs)), "count", jobs},
		figure{"fleet.affinity_hit_ratio", gm["pcfleet_affinity_hit_ratio"], "ratio", int(gm["pcfleet_affinity_lookups_total"])},
		figure{"fleet.steals", gm["pcfleet_steals_total"], "count", 1},
		figure{"fleet.peer_fills", gm["pcfleet_peer_fill_hits_total"], "count", 1},
		figure{"fleet.hedges", gm["pcfleet_hedges_fired_total"], "count", 1},
		figure{"trace.overhead_ratio", ratio(traced.value("program_ms_p50"), untraced.value("program_ms_p50")), "ratio", 2},
	)
	return figs, nil
}
