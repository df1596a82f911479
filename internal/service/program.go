package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"pcoup/internal/compiler"
	"pcoup/internal/experiments"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/oracle"
	"pcoup/internal/sexpr"
	"pcoup/internal/sim"
)

// ProgramSpec is an untrusted source program submitted for compilation
// and simulation (POST /v1/programs, or the "program" field of a job
// spec). The source crosses a trust boundary: it is parsed, compiled,
// and simulated under the strict resource limits of
// compiler.ServiceLimits plus a cycle budget, and every submission is
// validated by a bounded compile before it is accepted.
//
// A spec parses its source once: the first call that needs the
// canonical source hash (validation, the content key, routing) parses
// under the service's source bounds and remembers the hash, and the
// compiles go through the process-wide compile table (compiletable.go),
// so a process compiles a program once while the table holds it.
type ProgramSpec struct {
	// Source is the program text (s-expression surface syntax).
	Source string `json:"source"`
	// Mode selects the compiler schedule (seq, sts, tpe, coupled,
	// ideal; default coupled).
	Mode string `json:"mode,omitempty"`
	// DisableOpt turns off the scalar optimization passes.
	DisableOpt bool `json:"disable_opt,omitempty"`
	// AutoUnroll expands counted constant-bound loops up to this many
	// replicated iterations (0: off).
	AutoUnroll int `json:"auto_unroll,omitempty"`
	// Verify additionally runs the reference interpreter and fails the
	// job on any divergence from the simulated memory image. Only valid
	// for race-free programs (the interpreter executes forks
	// sequentially).
	Verify bool `json:"verify,omitempty"`

	// sha is the canonical source hash of hashed, the Source text it was
	// computed from (see canonicalSHA).
	sha, hashed string
}

// ProgramError marks a program submission rejected for what it contains
// — a syntax error, a resource-limit violation, or an invalid knob —
// rather than for how the service is doing. The HTTP layer maps it to
// 422 Unprocessable Entity, and the fleet gateway treats it as
// permanent (no failover: every backend would reject it identically).
type ProgramError struct{ Err error }

func (e *ProgramError) Error() string { return "program: " + e.Err.Error() }
func (e *ProgramError) Unwrap() error { return e.Err }

// programCompileTimeout bounds the submission-time validation compile.
// The worker's execution compile, on a compile-table miss, runs under
// the job's own deadline.
const programCompileTimeout = 5 * time.Second

// DefaultProgramCycles is the simulation cycle budget applied to
// program jobs that set no options.max_cycles. Exceeding it finishes
// the job in the budget_exceeded state rather than pinning a worker.
const DefaultProgramCycles = 10_000_000

// normalize checks the program's knobs and canonicalizes its mode.
// Every rejection here and in compiles is wrapped in ProgramError so
// the transport layers can distinguish "your program is bad" (422) from
// "the service is unhealthy" (5xx).
func (p *ProgramSpec) normalize() error {
	if strings.TrimSpace(p.Source) == "" {
		return &ProgramError{Err: fmt.Errorf("source is empty")}
	}
	if p.Mode == "" {
		p.Mode = string(experiments.COUPLED)
	}
	mode, err := experiments.ParseMode(p.Mode)
	if err != nil {
		return &ProgramError{Err: err}
	}
	p.Mode = string(mode)
	if p.AutoUnroll < 0 {
		return &ProgramError{Err: fmt.Errorf("auto_unroll: must be >= 0")}
	}
	return nil
}

// compiles checks that the source compiles under the service limits
// against the resolved machine (nil = baseline), within
// programCompileTimeout. Every failure is a ProgramError (HTTP 422). A
// success leaves the program in the compile table, where the worker
// that runs the job (or, behind a gateway in the same process, the
// backend's own validation) finds it, and where a resubmission's
// validation finds it while it is among the last compileTableSize
// programs.
func (p *ProgramSpec) compiles(cfg *machine.Config) error {
	sha, forms, err := p.canonicalSHA()
	if err != nil {
		return &ProgramError{Err: err}
	}
	lim := compiler.ServiceLimits()
	lim.Deadline = time.Now().Add(programCompileTimeout)
	if _, err := p.compile(context.Background(), sha, forms, cfg, lim); err != nil {
		return &ProgramError{Err: err}
	}
	return nil
}

// compile returns the program for (sha, cfg) from the compile table
// (cfg nil = baseline), compiling it under lim on a miss: from forms
// when the caller holds the parse that produced sha, else from the
// source.
func (p *ProgramSpec) compile(ctx context.Context, sha string, forms []*sexpr.Node, cfg *machine.Config, lim compiler.Limits) (*isa.Program, error) {
	msha, err := machineSHA(cfg)
	if err != nil {
		return nil, err
	}
	opts := p.compilerOptions()
	return programs.compile(compileKey{source: sha, machine: msha, opts: opts}, func() (*isa.Program, error) {
		if forms == nil {
			prog, _, err := compiler.CompileBounded(ctx, p.Source, cfg, opts, lim)
			return prog, err
		}
		prog, _, err := compiler.CompileFormsBounded(ctx, forms, cfg, opts, lim)
		return prog, err
	})
}

// compilerOptions maps the spec's knobs to compiler options. Call after
// normalize (Mode must be canonical).
func (p *ProgramSpec) compilerOptions() compiler.Options {
	return compiler.Options{
		Mode:       experiments.CompilerMode(experiments.Mode(p.Mode)),
		DisableOpt: p.DisableOpt,
		AutoUnroll: p.AutoUnroll,
	}
}

// canonicalSHA returns the hash of the source's canonical rendering, so
// formatting and comments do not fragment the caches: two submissions
// of the same program share one result-cache entry, one compile-table
// entry and one fleet routing home. The first call for a Source text
// parses it under the service's parse limits (the raw-byte, node and
// depth bounds run on every submitted text) and returns the forms with
// the hash; later calls return the remembered hash and nil forms. The
// forms are not kept: a queued job holds only its source.
func (p *ProgramSpec) canonicalSHA() (string, []*sexpr.Node, error) {
	if p.sha != "" && p.hashed == p.Source {
		return p.sha, nil, nil
	}
	lim := compiler.ServiceLimits()
	forms, err := sexpr.ParseLimits(p.Source, sexpr.Limits{
		MaxBytes: lim.MaxSourceBytes,
		MaxNodes: lim.MaxNodes,
		MaxDepth: lim.MaxDepth,
	})
	if err != nil {
		return "", nil, err
	}
	h := sha256.New()
	for _, f := range forms {
		h.Write([]byte(f.String()))
		h.Write([]byte{'\n'})
	}
	p.sha, p.hashed = hex.EncodeToString(h.Sum(nil)), p.Source
	return p.sha, forms, nil
}

// ProgramContentKey is the exported program cache key: the SHA-256
// content address of one (canonical source, machine, compiler options,
// sim options) compile-and-run. The fleet gateway routes program jobs
// on it so identical resubmissions land on the same backend and find
// its cache hot.
func ProgramContentKey(p *ProgramSpec, cfg *machine.Config, o SimOptions) (string, error) {
	sha, _, err := p.canonicalSHA()
	if err != nil {
		return "", &ProgramError{Err: err}
	}
	return p.contentKey(sha, cfg, o)
}

// contentKey is ProgramContentKey for a canonical source hash already
// in hand.
func (p *ProgramSpec) contentKey(sha string, cfg *machine.Config, o SimOptions) (string, error) {
	msha, err := machineSHA(cfg)
	if err != nil {
		return "", err
	}
	mode := p.Mode
	if mode == "" {
		mode = string(experiments.COUPLED)
	}
	return keyDoc{
		Kind: "program", Mode: mode, SourceSHA: sha, MachineSHA: msha, Options: o,
		Extra: fmt.Sprintf("opt=%t,unroll=%d,verify=%t", !p.DisableOpt, p.AutoUnroll, p.Verify),
	}.hash(), nil
}

// ProgramResult is the payload of a program job: run statistics plus
// the final contents of every declared global (the program's observable
// output).
type ProgramResult struct {
	Name       string             `json:"name"`
	Mode       string             `json:"mode"`
	MachineSHA string             `json:"machine_sha256"`
	Cycles     int64              `json:"cycles"`
	Ops        int64              `json:"ops"`
	Threads    int                `json:"threads"`
	Util       map[string]float64 `json:"utilization"`
	// Globals maps each declared global to its final values, rendered
	// as decimal strings (integers) or Go floats.
	Globals map[string][]string `json:"globals"`
	// Verified is set when the run was cross-checked against the
	// reference interpreter.
	Verified bool `json:"verified,omitempty"`
}

// runProgramJob simulates one untrusted program under the service
// limits and the cycle budget, consulting the result cache first. The
// program normally comes from the compile table, filled by this
// process's validation of the same submission; after an eviction it is
// compiled again, under the job's deadline.
func (s *Server) runProgramJob(ctx context.Context, job *Job) (json.RawMessage, error) {
	p := job.spec.Program
	sha, forms, err := p.canonicalSHA()
	if err != nil {
		return nil, &ProgramError{Err: err}
	}
	key, err := p.contentKey(sha, job.cfg, job.spec.Options)
	if err != nil {
		return nil, err
	}
	if payload, ok := s.cache.Get(key); ok {
		s.markHit(job)
		return payload, nil
	}

	cfg := job.cfg
	if cfg == nil {
		cfg = machine.Baseline()
	}
	prog, err := p.compile(ctx, sha, forms, cfg, compiler.ServiceLimits())
	if err != nil {
		if compiler.IsResourceLimit(err) {
			return nil, &ProgramError{Err: err}
		}
		return nil, err
	}

	sm, err := sim.New(cfg, prog, sim.WithContext(ctx))
	if err != nil {
		return nil, err
	}
	maxCycles := job.spec.Options.MaxCycles
	if maxCycles <= 0 {
		maxCycles = DefaultProgramCycles
	}
	r, err := sm.Run(maxCycles)
	if err != nil {
		return nil, err
	}

	msha, err := cfg.Hash()
	if err != nil {
		return nil, err
	}
	out := ProgramResult{
		Name: prog.Name, Mode: p.Mode, MachineSHA: msha,
		Cycles: r.Cycles, Ops: r.Ops, Threads: len(r.Threads),
		Util:    map[string]float64{},
		Globals: map[string][]string{},
	}
	for k := 0; k < machine.NumUnitKinds; k++ {
		kind := machine.UnitKind(k)
		out.Util[kind.String()] = r.Utilization(kind)
	}
	for _, d := range prog.Data {
		if strings.HasPrefix(d.Name, "_") {
			continue // hidden synchronization cells
		}
		vals := make([]string, len(d.Values))
		for i := range d.Values {
			v, _ := sm.Memory().Peek(d.Addr + int64(i))
			vals[i] = v.String()
		}
		out.Globals[d.Name] = vals
	}

	if p.Verify {
		if err := verifyProgram(p.Source, prog, sm); err != nil {
			return nil, err
		}
		out.Verified = true
	}
	sm.Release()

	payload, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	s.cache.Put(key, payload)
	return payload, nil
}

// verifyProgram replays the source on the reference interpreter and
// compares every global against the simulation's memory image. Any
// mismatch on a race-free program is a toolchain bug; on a racy program
// it flags the race.
func verifyProgram(src string, prog *isa.Program, sm *sim.Sim) error {
	want, err := oracle.Run(src)
	if err != nil {
		return &ProgramError{Err: fmt.Errorf("verify: interpreter: %w", err)}
	}
	addrs := map[string]int64{}
	for _, d := range prog.Data {
		addrs[d.Name] = d.Addr
	}
	for name, vals := range want {
		if strings.HasPrefix(name, "_") {
			continue
		}
		base, ok := addrs[name]
		if !ok {
			return fmt.Errorf("verify: global %q missing from compiled program", name)
		}
		for i, w := range vals {
			got, _ := sm.Memory().Peek(base + int64(i))
			if !got.Equal(w) {
				return fmt.Errorf("verify: divergence: %s[%d] = %v, interpreter says %v", name, i, got, w)
			}
		}
	}
	return nil
}
