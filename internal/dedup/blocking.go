package dedup

import (
	"iter"
	"sort"
	"strings"

	"repro/internal/record"
	"repro/internal/textutil"
)

// BlockKeyFunc maps a record to its blocking keys. Records sharing any key
// become candidate pairs; good keys balance recall (dup records share a key)
// against block size (pairs grow quadratically per block).
type BlockKeyFunc func(r *record.Record) []string

// PrefixBlocker blocks on the first n runes of the normalized value of attr,
// plus the value's sorted token initials (catching word-order swaps).
func PrefixBlocker(attr string, n int) BlockKeyFunc {
	return func(r *record.Record) []string {
		v := textutil.Normalize(r.GetString(attr))
		if v == "" {
			return nil
		}
		keys := make([]string, 0, 2)
		runes := []rune(v)
		if len(runes) > n {
			runes = runes[:n]
		}
		keys = append(keys, "p:"+string(runes))
		words := strings.Fields(v)
		if len(words) > 1 {
			initials := make([]byte, 0, len(words))
			for _, w := range words {
				initials = append(initials, w[0])
			}
			sort.Slice(initials, func(i, j int) bool { return initials[i] < initials[j] })
			keys = append(keys, "i:"+string(initials))
		}
		return keys
	}
}

// TokenBlocker blocks on each content token of attr — higher recall, bigger
// blocks.
func TokenBlocker(attr string) BlockKeyFunc {
	return func(r *record.Record) []string {
		words := textutil.ContentWords(r.GetString(attr))
		keys := make([]string, len(words))
		for i, w := range words {
			keys[i] = "t:" + w
		}
		return keys
	}
}

// TypedBlocker prefixes another blocker's keys with the value of a type
// attribute, so only same-typed records pair (e.g. Movie with Movie).
func TypedBlocker(typeAttr string, inner BlockKeyFunc) BlockKeyFunc {
	return func(r *record.Record) []string {
		typ := strings.ToLower(r.GetString(typeAttr))
		keys := inner(r)
		out := make([]string, len(keys))
		for i, k := range keys {
			out[i] = typ + "|" + k
		}
		return out
	}
}

// Pair is a candidate record pair, by index, with I < J.
type Pair struct{ I, J int }

// CandidatePairs builds the deduplicated candidate pairs induced by the
// blocker. maxBlock skips pathological blocks larger than the cap (0 means
// no cap), the standard guard at web scale. See candidatePairs for the order.
func CandidatePairs(records []*record.Record, key BlockKeyFunc, maxBlock int) []Pair {
	var pairs []Pair
	for p := range candidatePairs(blockKeys(records, key), maxBlock) {
		pairs = append(pairs, p)
	}
	return pairs
}

// blockKeys returns every record's blocking keys.
func blockKeys(records []*record.Record, key BlockKeyFunc) [][]string {
	keys := make([][]string, len(records))
	for i, r := range records {
		keys[i] = key(r)
	}
	return keys
}

// candidatePairs yields each pair of records that share a blocking key once,
// with no set of pairs seen: blocks are visited in key order, and a pair is
// yielded in the first kept block the two records share. keys[i] are record
// i's keys; a key a record lists twice counts once. A block of more than
// maxBlock records is skipped (0 keeps every block).
func candidatePairs(keys [][]string, maxBlock int) iter.Seq[Pair] {
	return func(yield func(Pair) bool) {
		blocks := map[string][]int{}
		for i, ks := range keys {
			for _, k := range ks {
				// A record's indices enter a block in order, so a repeat is last.
				if ids := blocks[k]; len(ids) == 0 || ids[len(ids)-1] != i {
					blocks[k] = append(ids, i)
				}
			}
		}
		kept := make([]string, 0, len(blocks))
		for k, ids := range blocks {
			if maxBlock <= 0 || len(ids) <= maxBlock {
				kept = append(kept, k)
			}
		}
		sort.Strings(kept)
		// Each record's kept blocks by rank, ascending: record i's are
		// ranks[start[i]:start[i+1]].
		start := make([]int, len(keys)+1)
		for _, k := range kept {
			for _, i := range blocks[k] {
				start[i+1]++
			}
		}
		for i := range keys {
			start[i+1] += start[i]
		}
		ranks := make([]int, start[len(keys)])
		next := append([]int(nil), start[:len(keys)]...)
		for rank, k := range kept {
			for _, i := range blocks[k] {
				ranks[next[i]] = rank
				next[i]++
			}
		}
		for rank, k := range kept {
			ids := blocks[k]
			for a := 0; a < len(ids); a++ {
				ra := ranks[start[ids[a]]:start[ids[a]+1]]
				for b := a + 1; b < len(ids); b++ {
					if firstShared(ra, ranks[start[ids[b]]:start[ids[b]+1]]) == rank &&
						!yield(Pair{I: ids[a], J: ids[b]}) {
						return
					}
				}
			}
		}
	}
}

// firstShared returns the smallest rank two ascending lists share; the
// callers' lists always share one.
func firstShared(a, b []int) int {
	for i, j := 0, 0; ; {
		switch {
		case a[i] == b[j]:
			return a[i]
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
}

// AllPairs enumerates every record pair — the no-blocking baseline the
// ablation bench compares against.
func AllPairs(n int) []Pair {
	var pairs []Pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, Pair{I: i, J: j})
		}
	}
	return pairs
}
