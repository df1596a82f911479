package sexpr

import (
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAtoms(t *testing.T) {
	cases := []struct {
		src  string
		kind Kind
	}{
		{"foo", KSymbol}, {"+", KSymbol}, {"<=", KSymbol}, {"-x", KSymbol},
		{"42", KInt}, {"-7", KInt}, {"+3", KInt},
		{"1.5", KFloat}, {"-0.25", KFloat}, {"1e3", KFloat}, {".5", KFloat}, {"-.5", KFloat},
		{`"hi there"`, KString},
	}
	for _, c := range cases {
		n, err := ParseOne(c.src)
		if err != nil {
			t.Errorf("ParseOne(%q): %v", c.src, err)
			continue
		}
		if n.Kind != c.kind {
			t.Errorf("ParseOne(%q).Kind = %v, want %v", c.src, n.Kind, c.kind)
		}
	}
}

func TestParseValues(t *testing.T) {
	n, _ := ParseOne("-42")
	if n.Int != -42 {
		t.Errorf("int value %d", n.Int)
	}
	n, _ = ParseOne("2.5e2")
	if n.Float != 250 {
		t.Errorf("float value %v", n.Float)
	}
	n, _ = ParseOne(`"a\nb\"c"`)
	if n.Str != "a\nb\"c" {
		t.Errorf("string value %q", n.Str)
	}
}

func TestParseNesting(t *testing.T) {
	n, err := ParseOne("(a (b 1 2.5) (c) ())")
	if err != nil {
		t.Fatal(err)
	}
	if n.Head() != "a" || len(n.List) != 4 {
		t.Fatalf("structure: %s", n)
	}
	if n.List[1].Head() != "b" || len(n.List[1].List) != 3 {
		t.Errorf("inner list: %s", n.List[1])
	}
	if len(n.List[3].List) != 0 {
		t.Errorf("empty list: %s", n.List[3])
	}
}

func TestComments(t *testing.T) {
	forms, err := Parse("; leading\n(a 1) ; trailing\n(b 2)\n;end")
	if err != nil {
		t.Fatal(err)
	}
	if len(forms) != 2 || forms[0].Head() != "a" || forms[1].Head() != "b" {
		t.Errorf("comment parse: %v", forms)
	}
}

func TestPositions(t *testing.T) {
	forms, err := Parse("(a\n  (b))")
	if err != nil {
		t.Fatal(err)
	}
	inner := forms[0].List[1]
	if inner.Line != 2 || inner.Col != 3 {
		t.Errorf("inner position = %d:%d, want 2:3", inner.Line, inner.Col)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{"(a", ")", "(a))", `"unterminated`, "(1.2.3)"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted malformed input", src)
		}
	}
	if _, err := ParseOne("(a) (b)"); err == nil {
		t.Error("ParseOne accepted two forms")
	}
}

func TestHelpers(t *testing.T) {
	n := ListNode(Sym("set"), Sym("x"), IntNode(1))
	if !n.List[0].IsSym("set") || n.Head() != "set" {
		t.Error("IsSym/Head")
	}
	if (&Node{Kind: KInt, Int: 3}).Head() != "" {
		t.Error("Head on non-list")
	}
}

// randomTree builds a random node tree for the round-trip property.
func randomTree(r *rand.Rand, depth int) *Node {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			syms := []string{"a", "foo", "+", "-", "<=", "set!", "x1"}
			return Sym(syms[r.Intn(len(syms))])
		case 1:
			return IntNode(r.Int63n(2000) - 1000)
		default:
			return FloatNode(float64(r.Int63n(1000)) / 8)
		}
	}
	n := &Node{Kind: KList}
	for i := r.Intn(4); i > 0; i-- {
		n.List = append(n.List, randomTree(r, depth-1))
	}
	return n
}

// stripPos zeroes positions for structural comparison.
func stripPos(n *Node) {
	n.Line, n.Col = 0, 0
	for _, c := range n.List {
		stripPos(c)
	}
}

func TestPrintParseRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		tree := randomTree(r, 4)
		back, err := ParseOne(tree.String())
		if err != nil {
			t.Fatalf("round trip parse of %q: %v", tree, err)
		}
		stripPos(back)
		stripPos(tree)
		if !reflect.DeepEqual(tree, back) {
			t.Fatalf("round trip mismatch:\nsrc  %s\nback %s", tree, back)
		}
	}
}

func TestFloatPrintKeepsTag(t *testing.T) {
	check := func(k int64) bool {
		f := FloatNode(float64(k))
		s := f.String()
		return strings.ContainsAny(s, ".eE")
	}
	if err := quick.Check(check, nil); err != nil {
		t.Errorf("integral floats must print with a marker: %v", err)
	}
}

// TestParseAllocs bounds the reader's allocations on a symbol-heavy
// source to one Node per token plus the doubling growth of each list's
// child slice: a symbol must not pay for a failed number parse.
func TestParseAllocs(t *testing.T) {
	src := strings.Repeat(`
(def (step acc idx)
  (set acc (+ acc (aref table idx)))
  (if (< acc limit) (aset table idx (* acc scale)) (set overflow true))
  (while (> acc zero) (set acc (- acc step-size))))`, 8)
	forms, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	growth := func(k int) int { return bits.Len(uint(k-1)) + 1 } // appends into nil: caps 1, 2, 4, ...
	want := growth(len(forms))
	var count func(n *Node)
	count = func(n *Node) {
		want++
		if len(n.List) > 0 {
			want += growth(len(n.List))
		}
		for _, c := range n.List {
			count(c)
		}
	}
	for _, f := range forms {
		count(f)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	if slack := 8; int(allocs) > want+slack {
		t.Fatalf("Parse: %.0f allocs, want <= %d (nodes and list growth) + %d", allocs, want, slack)
	}
}
