package record

// NormalizeName and NameEqual against the NormalizeName body they replaced:
// lower-case the whole name, trim it, then rebuild it rune by rune.

import (
	"strings"
	"testing"
)

// referenceNormalizeName is NormalizeName before the allocation-free
// scanner.
func referenceNormalizeName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	lastUnderscore := true // swallow leading separators
	for _, r := range strings.TrimSpace(strings.ToLower(name)) {
		switch {
		case r == ' ' || r == '-' || r == '_' || r == '.' || r == '/':
			if !lastUnderscore {
				b.WriteByte('_')
				lastUnderscore = true
			}
		default:
			b.WriteRune(r)
			lastUnderscore = false
		}
	}
	return strings.TrimSuffix(b.String(), "_")
}

func checkNameAgainstReference(t *testing.T, a, b string) {
	t.Helper()
	ra, rb := referenceNormalizeName(a), referenceNormalizeName(b)
	if got := NormalizeName(a); got != ra {
		t.Errorf("NormalizeName(%q) = %q, reference %q", a, got, ra)
	}
	if got, want := NameEqual(a, b), ra == rb; got != want {
		t.Errorf("NameEqual(%q, %q) = %v, reference %q vs %q", a, b, got, ra, rb)
	}
}

// nameCases are pairs that normalize alike and pairs that only nearly do.
var nameCases = [][2]string{
	{"SHOW_NAME", "show name"}, {"Show Name", "show-name"}, {"show.name", "show/name"},
	{"show__name", "show_name"}, {"show - name", "SHOW_NAME"}, {"show_name", "showname"},
	{"__weird__", "weird"}, {"  Theater  ", "theater"}, {"-theater.", "THEATER"},
	{"CheapestTix ", "cheapesttix"}, {"a.b/c", "a_b_c"}, {"a_b", "a_b_"},
	{"\tshow\tname\t", "show\tname"}, {"a_\tb", "a_ b"}, {"_\tx", "\tx"}, {"x\t_", "x\t"},
	{"", " "}, {"", "_"}, {"_", "-./ "}, {"a", "A"}, {"a", "b"}, {"ab", "a"},
	{"ÉCOLE", "école"}, {"École", "ecole"}, {"İ", "i"}, {"K", "k"}, {"ΣΑΣ", "σας"},
	{" x ", "x"}, {"\u0085x", "X"}, {"x　y", "x y"},
	{"\xffname", "�NAME"}, {"a\xc3", "a�"}, {"\xff", "\xfe"}, {"_\xff_", "�"},
}

func TestNameEqualMatchesNormalize(t *testing.T) {
	for _, c := range nameCases {
		checkNameAgainstReference(t, c[0], c[1])
		checkNameAgainstReference(t, c[1], c[0])
	}
}

func FuzzNameEqualMatchesNormalize(f *testing.F) {
	for _, c := range nameCases {
		f.Add(c[0], c[1])
	}
	f.Fuzz(checkNameAgainstReference)
}

// A lookup runs for every field a pipeline stage reads or writes: finding a
// field, filling a presized record and normalizing a name that is already
// normal must cost nothing.
func TestRecordLookupAllocatesNothing(t *testing.T) {
	r := New()
	r.Set("SHOW_NAME", String("Matilda"))
	var ok bool
	if n := testing.AllocsPerRun(100, func() { _, ok = r.Get("show name") }); n != 0 {
		t.Errorf(`Get("show name") allocates %v times, want 0`, n)
	}
	if !ok {
		t.Error(`Get("show name") missed SHOW_NAME`)
	}
	names := [10]string{"SHOW_NAME", "Theater", "show-date", "Cheapest Price", "first",
		"DISCOUNT", "address", "Box.Office", "phone", "rush_policy"}
	// AllocsPerRun calls the function once more than it counts.
	recs := make([]*Record, 101)
	for i := range recs {
		recs[i] = NewCap(len(names))
	}
	next := 0
	if n := testing.AllocsPerRun(100, func() {
		for _, name := range names {
			recs[next].Set(name, Int(1))
		}
		next++
	}); n != 0 {
		t.Errorf("ten Sets into NewCap(10) allocate %v times, want 0", n)
	}
	if got := recs[0].Len(); got != len(names) {
		t.Errorf("Len = %d, want %d", got, len(names))
	}
	var s string
	if n := testing.AllocsPerRun(100, func() { s = NormalizeName("show_name") }); n != 0 {
		t.Errorf(`NormalizeName("show_name") allocates %v times, want 0`, n)
	}
	if s != "show_name" {
		t.Errorf("NormalizeName = %q", s)
	}
}
