package dedup_test

// CandidatePairs against the map it replaced. referencePairs is that version
// as it stood — every block in key order, every pair of a block, a set of the
// pairs seen so far — except that it counts a key a record lists twice once,
// as CandidatePairs does (the map version paired such a record with itself
// and counted it twice against maxBlock).

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/dedup"
	"repro/internal/record"
	"repro/internal/textutil"
)

func referencePairs(records []*record.Record, key dedup.BlockKeyFunc, maxBlock int) []dedup.Pair {
	blocks := map[string][]int{}
	for i, r := range records {
		listed := map[string]bool{}
		for _, k := range key(r) {
			if !listed[k] {
				listed[k] = true
				blocks[k] = append(blocks[k], i)
			}
		}
	}
	seen := map[dedup.Pair]bool{}
	var pairs []dedup.Pair
	keys := make([]string, 0, len(blocks))
	for k := range blocks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ids := blocks[k]
		if maxBlock > 0 && len(ids) > maxBlock {
			continue
		}
		for a := 0; a < len(ids); a++ {
			for b := a + 1; b < len(ids); b++ {
				p := dedup.Pair{I: ids[a], J: ids[b]}
				if !seen[p] {
					seen[p] = true
					pairs = append(pairs, p)
				}
			}
		}
	}
	return pairs
}

// tokenKeys blocks on each content token of SHOW_NAME and typedTokenKeys
// on the theater and a token together: several keys a record, large blocks.
func tokenKeys(r *record.Record) []string {
	var keys []string
	for _, w := range textutil.ContentWords(r.GetString("SHOW_NAME")) {
		keys = append(keys, "t:"+w)
	}
	return keys
}

func typedTokenKeys(r *record.Record) []string {
	typ := strings.ToLower(r.GetString("THEATER"))
	keys := tokenKeys(r)
	for i, k := range keys {
		keys[i] = typ + "|" + k
	}
	return keys
}

// TestCandidatePairsMatchesReference: the same pairs in the same order as
// the map version over the translated tables of seeds 1-3, for each blocker,
// with and without a block cap.
func TestCandidatePairsMatchesReference(t *testing.T) {
	blockers := map[string]dedup.BlockKeyFunc{
		"prefix": dedup.PrefixBlocker("SHOW_NAME", 4),
		"token":  tokenKeys,
		"typed":  typedTokenKeys,
	}
	for seed := int64(1); seed <= 3; seed++ {
		records := translatedTables(t, seed)
		for name, blocker := range blockers {
			// 55 skips about half the blocks of every seed and blocker.
			for _, maxBlock := range []int{0, 55} {
				got := dedup.CandidatePairs(records, blocker, maxBlock)
				want := referencePairs(records, blocker, maxBlock)
				if len(want) == 0 {
					t.Fatalf("seed %d, %s, max %d: the reference has no pairs", seed, name, maxBlock)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d, %s, max %d: %d pairs, reference %d", seed, name, maxBlock, len(got), len(want))
				}
			}
		}
	}
}

// FuzzCandidatePairsMatchesReference: over any key lists, repeated keys
// included, CandidatePairs yields what the reference does. Each input byte
// below 8 closes a record; any other byte adds one of eight keys to it. The
// seeds are the files under testdata/fuzz/FuzzCandidatePairsMatchesReference.
func FuzzCandidatePairsMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, maxBlock uint8) {
		var records []*record.Record
		keys := map[*record.Record][]string{}
		r := record.New()
		for i, b := range data {
			if b >= 8 {
				keys[r] = append(keys[r], fmt.Sprintf("k%d", b%8))
			}
			if b < 8 || i == len(data)-1 {
				records = append(records, r)
				r = record.New()
			}
		}
		key := func(r *record.Record) []string { return keys[r] }
		got := dedup.CandidatePairs(records, key, int(maxBlock))
		if want := referencePairs(records, key, int(maxBlock)); !reflect.DeepEqual(got, want) {
			t.Fatalf("keys %v, max %d: pairs %v, reference %v", keyLists(records, keys), maxBlock, got, want)
		}
	})
}

func keyLists(records []*record.Record, keys map[*record.Record][]string) [][]string {
	out := make([][]string, len(records))
	for i, r := range records {
		out[i] = keys[r]
	}
	return out
}
