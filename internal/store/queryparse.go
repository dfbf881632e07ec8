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
// numbers, or single/double-quoted strings. A bare value takes the kind it
// reads as (record.Infer: 1984 is a number, true a bool); a quoted one is a
// string. Keywords are case-insensitive.
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
		return nil, fmt.Errorf("store: unexpected %q after expression", p.peek().text)
	}
	return f, nil
}

type filterParser struct {
	tokens []token
	pos    int
}

// token is one lexed token; a quoted string's text is without its quotes.
type token struct {
	text   string
	quoted bool
}

func (p *filterParser) eof() bool { return p.pos >= len(p.tokens) }

func (p *filterParser) peek() token {
	if p.eof() {
		return token{}
	}
	return p.tokens[p.pos]
}

func (p *filterParser) next() token {
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
	for strings.EqualFold(p.peek().text, "or") {
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
	for strings.EqualFold(p.peek().text, "and") {
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
	case strings.EqualFold(p.peek().text, "not"):
		p.next()
		inner, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		return Not{Inner: inner}, nil
	case p.peek().text == "(":
		p.next()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.next().text != ")" {
			return nil, fmt.Errorf("store: missing closing parenthesis")
		}
		return inner, nil
	default:
		return p.parseCond()
	}
}

func (p *filterParser) parseCond() (Filter, error) {
	path := p.next().text
	if path == "" || isOperator(path) || path == ")" {
		return nil, fmt.Errorf("store: expected field path, got %q", path)
	}
	opTok := p.next().text
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
	if val.text == "" {
		return nil, fmt.Errorf("store: missing value for %s %s", path, opTok)
	}
	v := record.String(val.text)
	if !val.quoted {
		v = record.Infer(val.text)
	}
	return Cond{Path: path, Op: op, Value: v}, nil
}

func isOperator(tok string) bool {
	switch tok {
	case "=", "==", "!=", ">", ">=", "<", "<=", "~", "^":
		return true
	}
	return false
}

// lexFilter splits the expression into tokens: parens, operators, quoted
// strings (quotes stripped, the token marked quoted), and bare words.
func lexFilter(input string) []token {
	var tokens []token
	i := 0
	runes := []rune(input)
	for i < len(runes) {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '(' || r == ')':
			tokens = append(tokens, token{text: string(r)})
			i++
		case r == '"' || r == '\'':
			quote := r
			j := i + 1
			for j < len(runes) && runes[j] != quote {
				j++
			}
			tokens = append(tokens, token{text: string(runes[i+1 : min(j, len(runes))]), quoted: true})
			i = j + 1
		case strings.ContainsRune("=!<>~^", r):
			j := i + 1
			if j < len(runes) && runes[j] == '=' {
				j++
			}
			tokens = append(tokens, token{text: string(runes[i:j])})
			i = j
		default:
			j := i
			for j < len(runes) && !unicode.IsSpace(runes[j]) &&
				!strings.ContainsRune("()=!<>~^\"'", runes[j]) {
				j++
			}
			tokens = append(tokens, token{text: string(runes[i:j])})
			i = j
		}
	}
	return tokens
}
