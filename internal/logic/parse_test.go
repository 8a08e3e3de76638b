package logic

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// nested wraps A in n parentheses; quoted follows A with n postfix quotes.
func nested(n int) string { return strings.Repeat("(", n) + "A" + strings.Repeat(")", n) }
func quoted(n int) string { return "A" + strings.Repeat("'", n) }
func banged(n int) string { return strings.Repeat("!", n) + "A" }

// Parentheses, prefix ! and postfix quotes all count against MaxDepth:
// each shape parses at the bound and is a typed ErrTooDeep one past it.
func TestParseDepthBound(t *testing.T) {
	for _, shape := range []struct {
		name string
		of   func(int) string
	}{{"parentheses", nested}, {"postfix quotes", quoted}, {"prefix bangs", banged}} {
		e, err := Parse(shape.of(MaxDepth))
		if err != nil {
			t.Fatalf("%s at the bound: %v", shape.name, err)
		}
		if _, err := Parse(e.String()); err != nil {
			t.Errorf("%s at the bound: String() %.40q... does not re-parse: %v", shape.name, e.String(), err)
		}
		_, err = Parse(shape.of(MaxDepth + 1))
		var pe *ParseError
		if !errors.Is(err, ErrTooDeep) || !errors.As(err, &pe) {
			t.Errorf("%s one past the bound: err = %v, want a *ParseError wrapping ErrTooDeep", shape.name, err)
		}
	}
	// A mixed stack: each level alternates a parenthesis and a negation.
	mixed := func(n int) string {
		return strings.Repeat("!(", n/2) + "A" + strings.Repeat(")", n/2)
	}
	if _, err := Parse(mixed(MaxDepth)); err != nil {
		t.Errorf("mixed at the bound: %v", err)
	}
	if _, err := Parse(mixed(MaxDepth + 2)); !errors.Is(err, ErrTooDeep) {
		t.Errorf("mixed past the bound: err = %v, want ErrTooDeep", err)
	}
}

// The two bodies that once overflowed a daemon's stack (both fit under
// its 4 MiB request cap) fail fast with ErrTooDeep.
func TestParseRejectsStackBreakingInput(t *testing.T) {
	for name, s := range map[string]string{
		"parentheses": nested(2_097_120),
		"quotes":      quoted(4_194_240),
	} {
		if _, err := Parse(s); !errors.Is(err, ErrTooDeep) {
			t.Errorf("%s: err = %v, want ErrTooDeep", name, err)
		}
	}
}

// FuzzParse: every input is either a typed parse error or an expression
// whose String() re-parses to the same String() and Vars().
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		e, err := Parse(s)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse(%q): untyped error %v", s, err)
			}
			return
		}
		out := e.String()
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not re-parse: %v", s, out, err)
		}
		if got := back.String(); got != out {
			t.Fatalf("Parse(%q): String() %q re-parses to %q", s, out, got)
		}
		if !slices.Equal(back.Vars(), e.Vars()) {
			t.Fatalf("Parse(%q): Vars %v re-parse to %v", s, e.Vars(), back.Vars())
		}
	})
}
