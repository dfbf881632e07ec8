package dedup_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dedup"
	"repro/internal/ml"
	"repro/internal/record"
)

// likeModel matches two records when some attribute they share reads alike
// (Jaro-Winkler of at least 0.8) or two numbers lie close; with
// refuseCopies it refuses every pair whose shared values all agree, so a
// record never matches its own copy. Its answer is 0 or 1 and does not
// depend on the map's order.
type likeModel struct{ refuseCopies bool }

func (m likeModel) PredictProb(f ml.Features) float64 {
	if m.refuseCopies && f["exactFrac"] == 1 {
		return 0
	}
	for name, v := range f {
		if strings.HasPrefix(name, "jw:") && v >= 0.8 || strings.HasPrefix(name, "num:") && v >= 0.9 {
			return 1
		}
	}
	return 0
}

// fuzzValues are the values a fuzzed record's name takes, and fuzzCities
// its city's; the first of each stands for an absent field. Names hold
// null, near and exact repeats, one name in two cases, and "27" against
// 27, whose profiles agree. Cities hold "true" against true, which read
// alike but only one of which is a number, and the number 1.
var fuzzValues = []record.Value{
	{}, record.Null, record.String("Matilda"), record.String("Matild"),
	record.String("MATILDA"), record.String("27"), record.Int(27), record.Float(27.5),
}

var fuzzCities = []record.Value{{}, record.String("true"), record.Bool(true), record.Int(1)}

// fuzzRecords reads records from data, two bytes each. The first picks the
// name, the city, whether the city is set first and how the name field is
// spelled; the second the record's keys (any of three, or none) and whether
// it arrived before or after the split.
func fuzzRecords(data []byte) (records []*record.Record, keys [][]string, late []bool) {
	for ; len(data) >= 2; data = data[2:] {
		a, b := data[0], data[1]
		r := record.New()
		name, city := a%8, (a/8)%4
		field := "name"
		if a&0x40 != 0 {
			field = "Name"
		}
		setCity := func() {
			if city != 0 {
				r.Set("city", fuzzCities[city])
			}
		}
		if a&0x20 != 0 {
			setCity()
		}
		if name != 0 {
			r.Set(field, fuzzValues[name])
		}
		if a&0x20 == 0 {
			setCity()
		}
		var ks []string
		for k := 0; k < 3; k++ {
			if b&(1<<k) != 0 {
				ks = append(ks, fmt.Sprintf("k%d", k))
			}
		}
		records, keys, late = append(records, r), append(keys, ks), append(late, b&8 != 0)
	}
	return records, keys, late
}

// FuzzRunKeyedMatchesAllPairs: over records from a small alphabet, with
// either featurizer, with a model that matches or refuses a record's own
// copy, under a block cap or none, RunKeyed clusters as scoring every
// candidate record pair does; and when the records that arrived early were
// clustered first, a run given those clusters as prior clusters the late
// ones the same way. The first byte picks the featurizer (bit 0), the model
// (bit 1), the cap (bits 2-4) and the split (bit 5; a split runs with no
// cap, as a refresh does).
func FuzzRunKeyedMatchesAllPairs(f *testing.F) {
	f.Add([]byte{0x00, 0x02, 0x07, 0x03, 0x07, 0x04, 0x0f})
	f.Add([]byte{0x23, 0x02, 0x07, 0x02, 0x0f, 0x05, 0x07, 0x06, 0x0f, 0x66, 0x01})
	f.Add([]byte{0x22, 0x02, 0x0f, 0x02, 0x07, 0x02, 0x0f, 0x03, 0x07, 0x43, 0x0b, 0x0a, 0x01})
	f.Add([]byte{0x0d, 0x0a, 0x01, 0x0a, 0x01, 0x0a, 0x01, 0x0b, 0x03, 0x2b, 0x02, 0x00, 0x00})
	f.Add([]byte{0x01, 0x25, 0x06, 0x26, 0x06, 0x07, 0x06, 0x65, 0x07, 0x1d, 0x0e})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 81 {
			return
		}
		mode := data[0]
		records, keys, late := fuzzRecords(data[1:])
		fz := dedup.Featurizer{}
		if mode&1 != 0 {
			fz.Attrs = []string{"name", "city"}
		}
		d := &dedup.Deduper{
			Matcher:  &dedup.Matcher{Model: likeModel{refuseCopies: mode&2 != 0}, Featurizer: fz, Threshold: 0.5},
			MaxBlock: int(mode>>2) & 7,
		}
		split := mode&0x20 != 0
		if split {
			d.MaxBlock = 0
		}
		want := d.AllPairsMembers(records, keys)
		res := d.RunKeyed(records, keys, nil)
		if got := members(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("keys %v, cap %d: clusters %v, scoring every pair gives %v", keys, d.MaxBlock, got, want)
		}
		if res.Scored > res.Candidates {
			t.Fatalf("scored %d of %d candidate pairs", res.Scored, res.Candidates)
		}
		if !split {
			return
		}
		// The early records alone, clustered first, give the prior clusters.
		var early []int
		for i, l := range late {
			if !l {
				early = append(early, i)
			}
		}
		earlyRecs, earlyKeys := make([]*record.Record, len(early)), make([][]string, len(early))
		for k, i := range early {
			earlyRecs[k], earlyKeys[k] = records[i], keys[i]
		}
		prior := make([]int, len(records))
		for i := range prior {
			prior[i] = -1
		}
		for c, ms := range d.RunKeyed(earlyRecs, earlyKeys, nil).Clusters {
			for _, k := range ms.Members {
				prior[early[k]] = c
			}
		}
		if got := members(d.RunKeyed(records, keys, prior)); !reflect.DeepEqual(got, want) {
			t.Fatalf("keys %v, prior %v: clusters %v, scoring every pair gives %v", keys, prior, got, want)
		}
	})
}

func members(res dedup.Consolidation) [][]int {
	out := make([][]int, len(res.Clusters))
	for i, c := range res.Clusters {
		out[i] = c.Members
	}
	return out
}

// TestRunKeyedSkipsJoinedPairs: three records in one block that all match
// meet three pairs, and the third, whose records the first two already
// joined, is not scored.
func TestRunKeyedSkipsJoinedPairs(t *testing.T) {
	var records []*record.Record
	for _, name := range []string{"Matilda", "Matild", "Matilde"} {
		r := record.New()
		r.Set("name", record.String(name))
		records = append(records, r)
	}
	d := &dedup.Deduper{Matcher: &dedup.Matcher{Model: likeModel{}, Threshold: 0.5}}
	res := d.RunKeyed(records, [][]string{{"k"}, {"k"}, {"k"}}, nil)
	if got := members(res); !reflect.DeepEqual(got, [][]int{{0, 1, 2}}) || res.Candidates != 3 || res.Scored != 2 {
		t.Fatalf("clusters %v, %d candidate pairs, %d scored; want one cluster, 3 and 2", got, res.Candidates, res.Scored)
	}
}
