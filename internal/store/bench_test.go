package store

import (
	"context"
	"fmt"
	"testing"
)

// buildBenchSharded fills a sharded namespace with fragments whose text
// defeats every secondary index; one in 40 carries the needle token.
func buildBenchSharded(shards, docs int) *Sharded {
	s := NewSharded("bench.docs", "key", shards, 0)
	for i := 0; i < docs; i++ {
		text := fmt.Sprintf("fragment %d about broadway pricing and schedules", i)
		if i%40 == 0 {
			text += " with a needle token"
		}
		s.Insert(NewDoc().
			Set("key", Str(fmt.Sprintf("k%05d", i))).
			Set("text", Str(text)))
	}
	return s
}

// BenchmarkShardedScanFanOut measures the unindexed substring scan at
// increasing shard counts — the parallel fan-out should keep wall time
// near the largest shard's scan, not the sum of all shards.
func BenchmarkShardedScanFanOut(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("%02dshard", shards), func(b *testing.B) {
			s := buildBenchSharded(shards, 8000)
			filter := Contains("text", "needle")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got, _ := s.CountWhereCtx(context.Background(), filter); got != 200 {
					b.Fatalf("matches = %d", got)
				}
			}
		})
	}
}

// BenchmarkTextSearch compares the full substring scan against the
// inverted text index (tokenized postings + candidate verification) on the
// same corpus and query.
func BenchmarkTextSearch(b *testing.B) {
	run := func(b *testing.B, s *Sharded) {
		filter := Contains("text", "needle")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got, _ := s.CountWhereCtx(context.Background(), filter); got != 200 {
				b.Fatalf("matches = %d", got)
			}
		}
	}
	b.Run("scan", func(b *testing.B) {
		run(b, buildBenchSharded(4, 8000))
	})
	b.Run("indexed", func(b *testing.B) {
		s := buildBenchSharded(4, 8000)
		s.EnsureTextIndex("text")
		run(b, s)
	})
}

// BenchmarkShardedInsert measures routed insert throughput — the path the
// FNV-1a inlining and atomic assignment counters keep allocation-free.
func BenchmarkShardedInsert(b *testing.B) {
	s := NewSharded("bench.ins", "key", 4, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(NewDoc().
			Set("key", Str(fmt.Sprintf("k%07d", i))).
			Set("text", Str("short fragment body")))
	}
}

// BenchmarkCollectionDelete measures delete cost at a size where the old
// O(n) order splice dominated.
func BenchmarkCollectionDelete(b *testing.B) {
	c := Open("bench", 0).Collection("del")
	ids := make([]int64, 0, b.N)
	for i := 0; i < b.N; i++ {
		ids = append(ids, c.Insert(NewDoc().Set("key", Str(fmt.Sprintf("k%07d", i)))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, id := range ids {
		c.Delete(id)
	}
}
