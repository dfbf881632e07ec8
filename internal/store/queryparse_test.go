package store

import (
	"testing"
	"testing/quick"
)

func parseOrFail(t *testing.T, expr string) Filter {
	t.Helper()
	f, err := ParseFilter(expr)
	if err != nil {
		t.Fatalf("ParseFilter(%q): %v", expr, err)
	}
	return f
}

func TestParseFilterBasicOps(t *testing.T) {
	d := entityDoc("The Walking Dead", "Movie", 42)
	cases := []struct {
		expr string
		want bool
	}{
		{`type = Movie`, true},
		{`type = Person`, false},
		{`type != Person`, true},
		{`mentions > 40`, true},
		{`mentions >= 42`, true},
		{`mentions < 42`, false},
		{`mentions <= 42`, true},
		{`name ~ walking`, true},
		{`name ~ zombie`, false},
		{`name ^ "The "`, true},
		{`name ^ Dead`, false},
		{`name EXISTS`, true},
		{`ghost EXISTS`, false},
	}
	for _, c := range cases {
		f := parseOrFail(t, c.expr)
		if got := f.Matches(d); got != c.want {
			t.Errorf("%q matched %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestParseFilterBoolean(t *testing.T) {
	movie := entityDoc("Matilda", "Movie", 10)
	person := entityDoc("Matilda", "Person", 10)
	f := parseOrFail(t, `name = Matilda AND type = Movie`)
	if !f.Matches(movie) || f.Matches(person) {
		t.Error("AND semantics wrong")
	}
	f = parseOrFail(t, `type = Person OR type = Movie`)
	if !f.Matches(movie) || !f.Matches(person) {
		t.Error("OR semantics wrong")
	}
	f = parseOrFail(t, `NOT type = Movie`)
	if f.Matches(movie) || !f.Matches(person) {
		t.Error("NOT semantics wrong")
	}
	// Precedence: AND binds tighter than OR.
	f = parseOrFail(t, `type = Person OR type = Movie AND mentions > 99`)
	if f.Matches(movie) {
		t.Error("precedence wrong: movie with low mentions matched")
	}
	if !f.Matches(person) {
		t.Error("precedence wrong: person should match")
	}
	// Parentheses override.
	f = parseOrFail(t, `(type = Person OR type = Movie) AND mentions > 99`)
	if f.Matches(movie) || f.Matches(person) {
		t.Error("parenthesized filter wrong")
	}
}

func TestParseFilterQuotedAndDotted(t *testing.T) {
	d := NewDoc().
		Set("name", Str("The Walking Dead")).
		Set("attributes", Nested(NewDoc().Set("award winning", Str("true"))))
	f := parseOrFail(t, `name = "The Walking Dead"`)
	if !f.Matches(d) {
		t.Error("quoted value failed")
	}
	f = parseOrFail(t, `name = 'The Walking Dead'`)
	if !f.Matches(d) {
		t.Error("single-quoted value failed")
	}
}

func TestParseFilterCaseInsensitiveKeywords(t *testing.T) {
	d := entityDoc("A", "Movie", 1)
	for _, expr := range []string{`type = Movie and name = A`, `type = Movie AND name exists`, `not type = Person`} {
		f := parseOrFail(t, expr)
		if !f.Matches(d) {
			t.Errorf("%q should match", expr)
		}
	}
}

func TestParseFilterErrors(t *testing.T) {
	for _, expr := range []string{
		"", "AND", "name =", "= Movie", "name ? x",
		"(type = Movie", "type = Movie extra", "NOT", "name", "()",
	} {
		if _, err := ParseFilter(expr); err == nil {
			t.Errorf("ParseFilter(%q) should fail", expr)
		}
	}
}

// Property: the lexer never panics and always terminates on arbitrary input.
func TestQuickParseFilterRobust(t *testing.T) {
	f := func(s string) bool {
		ParseFilter(s) // error or not, must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseFilterAgainstCollection(t *testing.T) {
	c := NewCollection("dt.entity", 0)
	c.Insert(entityDoc("The Walking Dead", "Movie", 100))
	c.Insert(entityDoc("Matilda", "Movie", 50))
	c.Insert(entityDoc("IBM", "Company", 80))
	f := parseOrFail(t, `type = Movie AND mentions >= 50`)
	if got := len(find(c, f)); got != 2 {
		t.Errorf("find = %d", got)
	}
}

func TestExplainFilter(t *testing.T) {
	c := NewCollection("dt.entity", 0)
	c.EnsureIndex("type_1", "type", HashIndex)
	c.EnsureIndex("name_1", "name", BTreeIndex)
	c.Insert(entityDoc("A", "Movie", 1))

	ex := explain(c, parseOrFail(t, `type = Movie`))
	if ex.AccessPath != "index" || ex.IndexName != "type_1" || ex.IndexKind != "hash" {
		t.Errorf("eq explain = %+v", ex)
	}
	ex = explain(c, parseOrFail(t, `name ^ Th`))
	if ex.AccessPath != "index" || ex.IndexKind != "btree" {
		t.Errorf("prefix explain = %+v", ex)
	}
	ex = explain(c, parseOrFail(t, `mentions > 3`))
	if ex.AccessPath != "scan" {
		t.Errorf("range explain = %+v", ex)
	}
	ex = explain(c, parseOrFail(t, `type = Movie AND mentions > 3`))
	if ex.AccessPath != "index" {
		t.Errorf("and explain = %+v", ex)
	}
	ex = explain(c, parseOrFail(t, `mentions > 3 AND missing = x`))
	if ex.AccessPath != "scan" {
		t.Errorf("unindexed and explain = %+v", ex)
	}
	ex = explain(c, parseOrFail(t, `type = Movie OR name = A`))
	if ex.AccessPath != "scan" {
		t.Errorf("or explain = %+v", ex)
	}
}

// FuzzParseFilter: no expression panics the parser, and one that parses can
// be planned and matched against a document. The seed expressions are the
// files under testdata/fuzz/FuzzParseFilter.
func FuzzParseFilter(f *testing.F) {
	c := NewCollection("dt.entity", 0)
	c.EnsureIndex("type_1", "type", HashIndex)
	c.EnsureIndex("name_1", "name", BTreeIndex)
	c.EnsureTextIndex("name")
	d := entityDoc("The Walking Dead", "Movie", 42)
	c.Insert(d)
	f.Fuzz(func(t *testing.T, expr string) {
		filter, err := ParseFilter(expr)
		if err != nil {
			return
		}
		if filter == nil {
			t.Fatalf("ParseFilter(%q) returned neither a filter nor an error", expr)
		}
		if got := c.Query(Query{Filter: filter}).Total; (got == 1) != filter.Matches(d) {
			t.Fatalf("%q: the collection counts %d, Matches says %v", expr, got, filter.Matches(d))
		}
	})
}
