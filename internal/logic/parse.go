package logic

import (
	"errors"
	"fmt"
	"unicode"
)

// MaxDepth bounds how deeply an expression may nest. Parse holds two
// heights to it: the parser's own nesting, where each open parenthesis and
// each prefix ! is one level, and the height of the parsed tree, where
// each NOT (a prefix ! or a postfix quote), AND and OR node is one level.
// Past either, Parse fails with ErrTooDeep. The bound keeps every
// recursion over a parsed expression (the parser, String, Vars, the
// synthesizer's lowering) far inside a goroutine stack; cell and circuit
// expressions nest a handful of levels.
const MaxDepth = 256

// ErrTooDeep is the cause of a ParseError for input nesting past MaxDepth.
var ErrTooDeep = fmt.Errorf("nesting deeper than %d levels", MaxDepth)

// ParseError is the one error type Parse returns: why and where (in runes
// from the start of the input) parsing stopped.
type ParseError struct {
	Offset int
	Err    error
}

// Error renders the cause and its offset.
func (e *ParseError) Error() string {
	return fmt.Sprintf("%v at offset %d", e.Err, e.Offset)
}

// Unwrap returns the cause, so errors.Is(err, ErrTooDeep) finds the bound.
func (e *ParseError) Unwrap() error { return e.Err }

// Parse parses a Boolean expression. Supported syntax:
//
//	OR:   a+b or a|b
//	AND:  a*b, a&b, or juxtaposition (AB means A*B for single-letter names)
//	NOT:  !a (prefix) or a' (postfix)
//	parentheses, identifiers ([A-Za-z_][A-Za-z0-9_]*)
//
// Juxtaposition only applies between adjacent single-character variables
// inside one identifier-looking token: "ABC" parses as A*B*C, matching the
// paper's SOP notation, whereas "Cin" parses as one variable because of the
// lower-case letters. Nesting is bounded by MaxDepth; every error is a
// *ParseError.
func Parse(s string) (*Expr, error) {
	p := &parser{src: []rune(s)}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.fail(fmt.Errorf("unexpected %q", string(p.src[p.pos])))
	}
	return e.e, nil
}

// node is a parsed subtree with its height: 0 for a variable, one more
// than its tallest operand for NOT, AND and OR.
type node struct {
	e *Expr
	h int
}

type parser struct {
	src  []rune
	pos  int
	nest int // open parentheses and prefix '!' around the current position
}

// fail wraps a cause into a ParseError at the current position.
func (p *parser) fail(err error) error { return &ParseError{Offset: p.pos, Err: err} }

// enter opens one parser nesting level (a parenthesis or a prefix '!');
// the caller closes it with p.nest--.
func (p *parser) enter() error {
	if p.nest++; p.nest > MaxDepth {
		return p.fail(ErrTooDeep)
	}
	return nil
}

// not negates n, holding the tree height to MaxDepth.
func (p *parser) not(n node) (node, error) {
	if n.h >= MaxDepth {
		return node{}, p.fail(ErrTooDeep)
	}
	return node{Not(n.e), n.h + 1}, nil
}

// join builds the n-ary op over ns (flattening like nary), holding the
// tree height to MaxDepth. A single operand is returned as is.
func (p *parser) join(op Op, ns []node) (node, error) {
	if len(ns) == 1 {
		return ns[0], nil
	}
	es := make([]*Expr, len(ns))
	h := 0
	for i, n := range ns {
		es[i] = n.e
		kh := n.h
		if n.e.Op == op {
			kh-- // flattened: its operands become this node's
		}
		h = max(h, kh+1)
	}
	if h > MaxDepth {
		return node{}, p.fail(ErrTooDeep)
	}
	return node{nary(op, es), h}, nil
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(p.src[p.pos]) {
		p.pos++
	}
}

func (p *parser) peek() rune {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) parseOr() (node, error) {
	left, err := p.parseAnd()
	if err != nil {
		return node{}, err
	}
	terms := []node{left}
	for {
		p.skipSpace()
		c := p.peek()
		if c != '+' && c != '|' {
			break
		}
		p.pos++
		t, err := p.parseAnd()
		if err != nil {
			return node{}, err
		}
		terms = append(terms, t)
	}
	return p.join(OpOr, terms)
}

func (p *parser) parseAnd() (node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return node{}, err
	}
	factors := []node{left}
	for {
		p.skipSpace()
		c := p.peek()
		if c == '*' || c == '&' {
			p.pos++
		} else if c == '(' || c == '!' || isIdentStart(c) {
			// implicit AND by juxtaposition, e.g. "A(B+C)".
		} else {
			break
		}
		f, err := p.parseUnary()
		if err != nil {
			return node{}, err
		}
		factors = append(factors, f)
	}
	return p.join(OpAnd, factors)
}

func (p *parser) parseUnary() (node, error) {
	p.skipSpace()
	c := p.peek()
	if c == '!' {
		if err := p.enter(); err != nil {
			return node{}, err
		}
		p.pos++
		n, err := p.parseUnary()
		p.nest--
		if err != nil {
			return node{}, err
		}
		return p.not(n)
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (node, error) {
	n, err := p.parsePrimary()
	if err != nil {
		return node{}, err
	}
	for p.peek() == '\'' {
		if n, err = p.not(n); err != nil {
			return node{}, err
		}
		p.pos++
	}
	return n, nil
}

func (p *parser) parsePrimary() (node, error) {
	p.skipSpace()
	c := p.peek()
	switch {
	case c == '(':
		if err := p.enter(); err != nil {
			return node{}, err
		}
		p.pos++
		n, err := p.parseOr()
		p.nest--
		if err != nil {
			return node{}, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return node{}, p.fail(errors.New("missing ')'"))
		}
		p.pos++
		return n, nil
	case isIdentStart(c):
		return p.parseIdent()
	case c == 0:
		return node{}, p.fail(errors.New("unexpected end of expression"))
	default:
		return node{}, p.fail(fmt.Errorf("unexpected %q", string(c)))
	}
}

// parseIdent consumes an identifier token. A token that is entirely
// upper-case letters is split into single-letter variables joined by AND
// (the paper's "ABC" product notation, with per-letter postfix ' applied);
// any token containing lower-case letters, digits or underscores is a
// single variable name.
func (p *parser) parseIdent() (node, error) {
	start := p.pos
	for p.pos < len(p.src) && isIdentRune(p.src[p.pos]) {
		p.pos++
	}
	tok := string(p.src[start:p.pos])
	allUpper := true
	for _, r := range tok {
		if !unicode.IsUpper(r) {
			allUpper = false
			break
		}
	}
	if !allUpper || len(tok) == 1 {
		return node{e: Var(tok)}, nil
	}
	// Split "ABC" into A*B*C, honouring postfix quotes per letter:
	// "AB'C" arrives as two tokens ("AB" then quote handled by postfix, so
	// the quote binds to B as expected because parsePostfix wraps the whole
	// product; to keep "AB'" meaning A*(B') we handle quotes inline here.
	factors := make([]node, 0, len(tok))
	for _, r := range tok {
		factors = append(factors, node{e: Var(string(r))})
	}
	// Inline postfix quotes bind to the final letter of the product.
	last := &factors[len(factors)-1]
	for p.peek() == '\'' {
		n, err := p.not(*last)
		if err != nil {
			return node{}, err
		}
		*last = n
		p.pos++
	}
	return p.join(OpAnd, factors)
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentRune(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
