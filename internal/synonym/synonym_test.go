package synonym

import (
	"testing"
	"testing/quick"
)

func TestDictAddAreSynonyms(t *testing.T) {
	d := NewDict()
	d.Add("theater", "theatre")
	d.Add("theatre", "venue")
	if !d.AreSynonyms("theater", "venue") {
		t.Error("transitivity failed")
	}
	if !d.AreSynonyms("THEATER", "Venue") {
		t.Error("case-insensitivity failed")
	}
	if d.AreSynonyms("theater", "price") {
		t.Error("unrelated terms reported synonymous")
	}
	if !d.AreSynonyms("anything", "anything") {
		t.Error("self-synonymy failed")
	}
}

func TestDictUnknownTermsNoMutation(t *testing.T) {
	d := NewDict()
	d.AreSynonyms("a", "b")
	if d.Len() != 0 {
		t.Errorf("lookup mutated dict: %d terms", d.Len())
	}
}

func TestExpandCanonical(t *testing.T) {
	d := NewDict()
	d.AddGroup("price", "cost", "fare")
	canon := d.Canonical("price")
	for _, term := range []string{"price", "cost", "fare"} {
		if d.Canonical(term) != canon {
			t.Errorf("Canonical(%s) = %s, want %s", term, d.Canonical(term), canon)
		}
	}
	if got := d.Canonical("unseen"); got != "unseen" {
		t.Errorf("Canonical(unseen) = %q", got)
	}
	if d.Canonical("cost") == d.Canonical("unseen") {
		t.Error("an unseen term joined the price set")
	}
}

func TestDefaultDomainVocabulary(t *testing.T) {
	d := Default()
	pairs := [][2]string{
		{"show", "title"},
		{"theater", "theatre"},
		{"price", "cheapest_price"},
		{"schedule", "performance"},
		{"first", "opening_date"},
	}
	for _, p := range pairs {
		if !d.AreSynonyms(p[0], p[1]) {
			t.Errorf("Default should link %q and %q", p[0], p[1])
		}
	}
	if d.AreSynonyms("show", "price") {
		t.Error("show and price must not be synonyms")
	}
}

// Property: AreSynonyms is symmetric and Add is idempotent.
func TestQuickSymmetry(t *testing.T) {
	f := func(a, b, c string) bool {
		d := NewDict()
		d.Add(a, b)
		d.Add(a, b)
		d.Add(b, c)
		return d.AreSynonyms(a, c) == d.AreSynonyms(c, a) && d.AreSynonyms(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
