package compiler

import (
	"bytes"
	"context"
	"testing"

	"pcoup/internal/bench"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/sexpr"
)

// TestCodegenDeterministic compiles every benchmark several times and
// requires byte-identical assembly: the compiler must not leak Go map
// iteration order into unit choices or schedules (reproducible builds
// are a prerequisite for reproducible experiments).
func TestCodegenDeterministic(t *testing.T) {
	cfg := machine.Baseline()
	for _, name := range bench.Names() {
		for _, kind := range []bench.SourceKind{bench.Sequential, bench.Threaded} {
			b, err := bench.Get(name, kind)
			if err != nil {
				t.Fatal(err)
			}
			var first []byte
			for trial := 0; trial < 3; trial++ {
				prog, _, err := Compile(b.Source, cfg, Options{Mode: Unrestricted})
				if err != nil {
					t.Fatalf("%s/%v: %v", name, kind, err)
				}
				var buf bytes.Buffer
				if err := isa.WriteText(&buf, prog); err != nil {
					t.Fatal(err)
				}
				if trial == 0 {
					first = append([]byte{}, buf.Bytes()...)
					continue
				}
				if !bytes.Equal(first, buf.Bytes()) {
					t.Fatalf("%s/%v: compilation is nondeterministic", name, kind)
				}
			}
		}
	}
}

// TestCompileFormsBoundedLeavesFormsUnchanged compiles pre-parsed forms
// of every benchmark (procedure expansion, unrolling, forall) and
// requires each form to render the same afterwards: callers may hash
// the forms they hand to the compiler, so the compiler must not rewrite
// them.
func TestCompileFormsBoundedLeavesFormsUnchanged(t *testing.T) {
	cfg := machine.Baseline()
	for _, name := range bench.Names() {
		for _, kind := range []bench.SourceKind{bench.Sequential, bench.Threaded} {
			b, err := bench.Get(name, kind)
			if err != nil {
				t.Fatal(err)
			}
			forms, err := sexpr.Parse(b.Source)
			if err != nil {
				t.Fatal(err)
			}
			before := make([]string, len(forms))
			for i, f := range forms {
				before[i] = f.String()
			}
			for _, opts := range []Options{{Mode: Unrestricted, AutoUnroll: 64}, {Mode: SingleCluster, DisableOpt: true}} {
				if _, _, err := CompileFormsBounded(context.Background(), forms, cfg, opts, ServiceLimits()); err != nil {
					t.Fatalf("%s/%v %+v: %v", name, kind, opts, err)
				}
				for i, f := range forms {
					if got := f.String(); got != before[i] {
						t.Fatalf("%s/%v %+v: form %d changed:\nbefore %s\nafter  %s", name, kind, opts, i, before[i], got)
					}
				}
			}
		}
	}
}
