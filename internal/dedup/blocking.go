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

// Pair is a candidate pair, by index, with I < J; in RunKeyed, I == J
// pairs a group of interchangeable records with itself.
type Pair struct{ I, J int }

// CandidatePairs builds the deduplicated candidate pairs induced by the
// blocker. maxBlock skips pathological blocks larger than the cap (0 means
// no cap), the standard guard at web scale. See candidatePairs for the order.
func CandidatePairs(records []*record.Record, key BlockKeyFunc, maxBlock int) []Pair {
	var pairs []Pair
	for p := range candidatePairs(blockKeys(records, key), nil, maxBlock, nil) {
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

// candidatePairs yields each pair of items that share a blocking key once,
// with no set of pairs seen: blocks are visited in key order, and a pair is
// yielded in the first kept block the two items share. keys[i] are item i's
// keys; a key an item lists twice counts once. Item i stands for size[i]
// records (one each when size is nil): a block of more than maxBlock
// records is skipped (0 keeps every block), and an item of two or more is
// paired with itself, in its first kept block. When pending is not nil,
// only pairs with a pending side are yielded.
func candidatePairs(keys [][]string, size []int, maxBlock int, pending []bool) iter.Seq[Pair] {
	keep := func(i, j int) bool { return pending == nil || pending[i] || pending[j] }
	return func(yield func(Pair) bool) {
		blocks := map[string][]int{}
		for i, ks := range keys {
			for _, k := range ks {
				// An item's indices enter a block in order, so a repeat is last.
				if ids := blocks[k]; len(ids) == 0 || ids[len(ids)-1] != i {
					blocks[k] = append(ids, i)
				}
			}
		}
		kept := make([]string, 0, len(blocks))
		for k, ids := range blocks {
			records := len(ids)
			if size != nil {
				records = 0
				for _, i := range ids {
					records += size[i]
				}
			}
			if maxBlock <= 0 || records <= maxBlock {
				kept = append(kept, k)
			}
		}
		sort.Strings(kept)
		// Each item's kept blocks by rank, ascending: item i's are
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
			for a, i := range ids {
				ri := ranks[start[i]:start[i+1]]
				if size != nil && size[i] > 1 && ri[0] == rank && keep(i, i) && !yield(Pair{I: i, J: i}) {
					return
				}
				for _, j := range ids[a+1:] {
					if keep(i, j) && firstShared(ri, ranks[start[j]:start[j+1]]) == rank &&
						!yield(Pair{I: i, J: j}) {
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
