// Package sexpr provides the reader for the compiler's source language:
// a Lisp-syntax surface over simplified C semantics, as described in
// Section 3 of the paper. The reader produces a tree of Nodes; all
// semantic processing happens in the compiler package.
package sexpr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Kind discriminates Node variants.
type Kind int

const (
	// KSymbol is an identifier such as foo or +.
	KSymbol Kind = iota
	// KInt is an integer literal.
	KInt
	// KFloat is a floating-point literal.
	KFloat
	// KString is a quoted string literal.
	KString
	// KList is a parenthesized list.
	KList
)

// Node is one element of the parse tree.
type Node struct {
	Kind  Kind
	Sym   string
	Int   int64
	Float float64
	Str   string
	List  []*Node
	Line  int
	Col   int
}

// Sym constructs a symbol node (for tests and code generators).
func Sym(s string) *Node { return &Node{Kind: KSymbol, Sym: s} }

// IntNode constructs an integer literal node.
func IntNode(i int64) *Node { return &Node{Kind: KInt, Int: i} }

// FloatNode constructs a float literal node.
func FloatNode(f float64) *Node { return &Node{Kind: KFloat, Float: f} }

// ListNode constructs a list node.
func ListNode(items ...*Node) *Node { return &Node{Kind: KList, List: items} }

// IsSym reports whether the node is the given symbol.
func (n *Node) IsSym(s string) bool { return n != nil && n.Kind == KSymbol && n.Sym == s }

// Head returns the leading symbol of a list node, or "".
func (n *Node) Head() string {
	if n == nil || n.Kind != KList || len(n.List) == 0 || n.List[0].Kind != KSymbol {
		return ""
	}
	return n.List[0].Sym
}

// Pos formats the node's source position.
func (n *Node) Pos() string { return fmt.Sprintf("%d:%d", n.Line, n.Col) }

// String renders the node back to source form.
func (n *Node) String() string {
	var b strings.Builder
	n.write(&b)
	return b.String()
}

func (n *Node) write(b *strings.Builder) {
	switch n.Kind {
	case KSymbol:
		b.WriteString(n.Sym)
	case KInt:
		fmt.Fprintf(b, "%d", n.Int)
	case KFloat:
		s := strconv.FormatFloat(n.Float, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		b.WriteString(s)
	case KString:
		fmt.Fprintf(b, "%q", n.Str)
	case KList:
		b.WriteByte('(')
		for i, c := range n.List {
			if i > 0 {
				b.WriteByte(' ')
			}
			c.write(b)
		}
		b.WriteByte(')')
	}
}

// SyntaxError reports a reader failure with position information.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sexpr: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// DefaultMaxDepth is the list-nesting bound applied by Parse. The reader
// is recursive-descent, so nesting depth translates directly into Go
// stack frames; an adversarial source of matched parens must hit this
// bound long before the runtime's stack limit does.
const DefaultMaxDepth = 10_000

// Limits bounds the work the reader will perform on untrusted input.
// Zero values leave the corresponding dimension unlimited (Parse still
// applies DefaultMaxDepth so nesting can never exhaust the stack).
type Limits struct {
	MaxBytes int // source length in bytes
	MaxNodes int // total parse-tree nodes
	MaxDepth int // list nesting depth
}

// LimitError reports that parsing stopped because a Limits bound was
// exceeded. It is a typed error so services can map it to a 4xx response
// rather than treating it as an internal failure.
type LimitError struct {
	What      string // "bytes", "nodes", or "depth"
	Limit     int
	Line, Col int
}

func (e *LimitError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("sexpr: %d:%d: source exceeds %s limit %d", e.Line, e.Col, e.What, e.Limit)
	}
	return fmt.Sprintf("sexpr: source exceeds %s limit %d", e.What, e.Limit)
}

type lexer struct {
	src   string
	pos   int
	line  int
	col   int
	lim   Limits
	nodes int
	depth int
}

func (l *lexer) limitErr(what string, limit int) error {
	return &LimitError{What: what, Limit: limit, Line: l.line, Col: l.col}
}

func (l *lexer) errf(format string, args ...any) error {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peek() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *lexer) next() (byte, bool) {
	c, ok := l.peek()
	if !ok {
		return 0, false
	}
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c, true
}

func (l *lexer) skipSpace() {
	for {
		c, ok := l.peek()
		if !ok {
			return
		}
		if c == ';' {
			for {
				c, ok = l.next()
				if !ok || c == '\n' {
					break
				}
			}
			continue
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.next()
			continue
		}
		return
	}
}

func isSymbolByte(c byte) bool {
	if c == '(' || c == ')' || c == ';' || c == '"' {
		return false
	}
	return !unicode.IsSpace(rune(c))
}

// Parse reads all top-level forms from src. Nesting is bounded by
// DefaultMaxDepth; use ParseLimits to tighten (or widen) the bounds.
func Parse(src string) ([]*Node, error) {
	return ParseLimits(src, Limits{})
}

// ParseLimits reads all top-level forms from src under the given bounds.
// A violated bound returns a *LimitError. Whatever MaxDepth says, the
// effective nesting bound never exceeds DefaultMaxDepth: the reader's
// recursion must stay well inside the goroutine stack.
func ParseLimits(src string, lim Limits) ([]*Node, error) {
	if lim.MaxDepth <= 0 || lim.MaxDepth > DefaultMaxDepth {
		lim.MaxDepth = DefaultMaxDepth
	}
	if lim.MaxBytes > 0 && len(src) > lim.MaxBytes {
		return nil, &LimitError{What: "bytes", Limit: lim.MaxBytes}
	}
	l := &lexer{src: src, line: 1, col: 1, lim: lim}
	var forms []*Node
	for {
		l.skipSpace()
		if _, ok := l.peek(); !ok {
			return forms, nil
		}
		n, err := l.parseNode()
		if err != nil {
			return nil, err
		}
		forms = append(forms, n)
	}
}

// ParseOne reads exactly one form from src.
func ParseOne(src string) (*Node, error) {
	forms, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(forms) != 1 {
		return nil, fmt.Errorf("sexpr: expected one form, found %d", len(forms))
	}
	return forms[0], nil
}

func (l *lexer) parseNode() (*Node, error) {
	l.skipSpace()
	line, col := l.line, l.col
	c, ok := l.peek()
	if !ok {
		return nil, l.errf("unexpected end of input")
	}
	l.nodes++
	if l.lim.MaxNodes > 0 && l.nodes > l.lim.MaxNodes {
		return nil, l.limitErr("nodes", l.lim.MaxNodes)
	}
	switch {
	case c == '(':
		l.depth++
		if l.depth > l.lim.MaxDepth {
			return nil, l.limitErr("depth", l.lim.MaxDepth)
		}
		l.next()
		node := &Node{Kind: KList, Line: line, Col: col}
		for {
			l.skipSpace()
			c, ok := l.peek()
			if !ok {
				return nil, l.errf("unterminated list opened at %d:%d", line, col)
			}
			if c == ')' {
				l.next()
				l.depth--
				return node, nil
			}
			child, err := l.parseNode()
			if err != nil {
				return nil, err
			}
			node.List = append(node.List, child)
		}
	case c == ')':
		return nil, l.errf("unexpected ')'")
	case c == '"':
		l.next()
		var b strings.Builder
		for {
			c, ok := l.next()
			if !ok {
				return nil, l.errf("unterminated string")
			}
			if c == '"' {
				break
			}
			if c == '\\' {
				e, ok := l.next()
				if !ok {
					return nil, l.errf("unterminated escape")
				}
				switch e {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				default:
					b.WriteByte(e)
				}
				continue
			}
			b.WriteByte(c)
		}
		return &Node{Kind: KString, Str: b.String(), Line: line, Col: col}, nil
	default:
		start := l.pos
		for {
			c, ok := l.peek()
			if !ok || !isSymbolByte(c) {
				break
			}
			l.next()
		}
		tok := l.src[start:l.pos]
		if tok == "" {
			return nil, l.errf("invalid character %q", c)
		}
		// Classify before converting: a failed strconv parse allocates
		// its *NumError, and most tokens are symbols. Every token
		// ParseInt accepts looks numeric, so the guard changes nothing
		// about which tokens read as numbers.
		if looksNumeric(tok) {
			if n, err := strconv.ParseInt(tok, 10, 64); err == nil {
				return &Node{Kind: KInt, Int: n, Line: line, Col: col}, nil
			}
			if f, err := strconv.ParseFloat(tok, 64); err == nil {
				return &Node{Kind: KFloat, Float: f, Line: line, Col: col}, nil
			}
			return nil, l.errf("malformed number %q", tok)
		}
		return &Node{Kind: KSymbol, Sym: tok, Line: line, Col: col}, nil
	}
}

// looksNumeric reports whether tok begins like a number (so that symbols
// such as +, -, and 1+foo are handled sensibly).
func looksNumeric(tok string) bool {
	i := 0
	if tok[0] == '+' || tok[0] == '-' {
		if len(tok) == 1 {
			return false
		}
		i = 1
	}
	return tok[i] >= '0' && tok[i] <= '9' || (tok[i] == '.' && i+1 < len(tok) && tok[i+1] >= '0' && tok[i+1] <= '9')
}
