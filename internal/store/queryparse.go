package store

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/record"
)

// ParseFilter compiles a small filter expression language into a Filter —
// the store's query front door, used by the CLI:
//
//	expr   := orTerm { "OR" orTerm }
//	orTerm := term { "AND" term }
//	term   := "NOT" term | "(" expr ")" | cond
//	cond   := path op value | path "EXISTS"
//	op     := "=" | "!=" | ">" | ">=" | "<" | "<=" | "~" (contains) | "^" (prefix)
//
// Paths are dotted identifiers (entity.name); values are bare words,
// numbers, or single/double-quoted strings. Keywords are case-insensitive.
//
//	type = Movie AND attributes.award_winning = true
//	name ~ walking OR name ^ "The "
func ParseFilter(input string) (Filter, error) {
	p := &filterParser{tokens: lexFilter(input)}
	f, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("store: unexpected %q after expression", p.peek())
	}
	return f, nil
}

type filterParser struct {
	tokens []string
	pos    int
}

func (p *filterParser) eof() bool { return p.pos >= len(p.tokens) }

func (p *filterParser) peek() string {
	if p.eof() {
		return ""
	}
	return p.tokens[p.pos]
}

func (p *filterParser) next() string {
	tok := p.peek()
	p.pos++
	return tok
}

func (p *filterParser) parseOr() (Filter, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	terms := Or{left}
	for strings.EqualFold(p.peek(), "or") {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	if len(terms) == 1 {
		return left, nil
	}
	return terms, nil
}

func (p *filterParser) parseAnd() (Filter, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	terms := And{left}
	for strings.EqualFold(p.peek(), "and") {
		p.next()
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	if len(terms) == 1 {
		return left, nil
	}
	return terms, nil
}

func (p *filterParser) parseTerm() (Filter, error) {
	switch {
	case p.eof():
		return nil, fmt.Errorf("store: unexpected end of filter expression")
	case strings.EqualFold(p.peek(), "not"):
		p.next()
		inner, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		return Not{Inner: inner}, nil
	case p.peek() == "(":
		p.next()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.next() != ")" {
			return nil, fmt.Errorf("store: missing closing parenthesis")
		}
		return inner, nil
	default:
		return p.parseCond()
	}
}

func (p *filterParser) parseCond() (Filter, error) {
	path := p.next()
	if path == "" || isOperator(path) || path == ")" {
		return nil, fmt.Errorf("store: expected field path, got %q", path)
	}
	opTok := p.next()
	if strings.EqualFold(opTok, "exists") {
		return Exists(path), nil
	}
	var op Op
	switch opTok {
	case "=", "==":
		op = OpEq
	case "!=":
		op = OpNe
	case ">":
		op = OpGt
	case ">=":
		op = OpGe
	case "<":
		op = OpLt
	case "<=":
		op = OpLe
	case "~":
		op = OpContains
	case "^":
		op = OpPrefix
	default:
		return nil, fmt.Errorf("store: unknown operator %q", opTok)
	}
	val := p.next()
	if val == "" {
		return nil, fmt.Errorf("store: missing value for %s %s", path, opTok)
	}
	return Cond{Path: path, Op: op, Value: record.Infer(val)}, nil
}

func isOperator(tok string) bool {
	switch tok {
	case "=", "==", "!=", ">", ">=", "<", "<=", "~", "^":
		return true
	}
	return false
}

// lexFilter splits the expression into tokens: parens, operators, quoted
// strings (quotes stripped), and bare words.
func lexFilter(input string) []string {
	var tokens []string
	i := 0
	runes := []rune(input)
	for i < len(runes) {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '(' || r == ')':
			tokens = append(tokens, string(r))
			i++
		case r == '"' || r == '\'':
			quote := r
			j := i + 1
			for j < len(runes) && runes[j] != quote {
				j++
			}
			tokens = append(tokens, string(runes[i+1:min(j, len(runes))]))
			i = j + 1
		case strings.ContainsRune("=!<>~^", r):
			j := i + 1
			if j < len(runes) && runes[j] == '=' {
				j++
			}
			tokens = append(tokens, string(runes[i:j]))
			i = j
		default:
			j := i
			for j < len(runes) && !unicode.IsSpace(runes[j]) &&
				!strings.ContainsRune("()=!<>~^\"'", runes[j]) {
				j++
			}
			tokens = append(tokens, string(runes[i:j]))
			i = j
		}
	}
	return tokens
}
