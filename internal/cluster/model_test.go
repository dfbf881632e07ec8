package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fuse"
	"repro/internal/record"
	"repro/internal/store"
	"repro/internal/textutil"
)

// Model-based differential test of the read path. A deliberately naive
// reference — a slice of documents, a linear filter written here with
// strings.Split and strings.ToLower, a rescan for every aggregate — takes
// the same seeded random inserts and index creations as
// four routers: one local shard (a Collection behind the router), four
// local shards, one RemoteShard over a loopback node, and four of them
// whose node has a follower. After every op each router must agree with
// the reference.
//
// The follower pulls at seeded random steps, between the op and the reads.
// A read goes to the follower first, fenced at the generation its shard's
// last answer carried, and falls back to the primary while the follower
// lags, so each read is answered by whichever holds what the reference
// holds — and each of the two must have answered some.
//
// Both halves of what the wire carries are drawn at random too. Some
// inserts reach the routers as one batch of several documents, which must
// land where one insert per document puts them: a twin router per shard
// count takes exactly those serial inserts and names the shard and id a
// single insert must land at. And one query per step lists the
// fields it reads, which must come back equal to the reference's whether a
// shard shipped whole documents or only those fields. A third query per
// step groups the matches by one of the paths Distinct reads, the
// list-valued tags among them, and must count what the reference counts,
// key by key in the order of first matches.

// refStore is the reference: documents in insertion order, keyed by the
// "uid" every generated document carries.
type refStore struct {
	uids []int64
	docs map[int64]*store.Doc
}

// cloneDoc is a deep copy of d, through the codec.
func cloneDoc(d *store.Doc) *store.Doc {
	c, err := store.AdoptDoc(store.EncodeDoc(d))
	if err != nil {
		panic(err)
	}
	return c
}

func (r *refStore) put(uid int64, d *store.Doc) {
	r.uids = append(r.uids, uid)
	r.docs[uid] = d
}

// refPath walks a dotted path the way Doc.Path did before it stopped
// splitting.
func refPath(d *store.Doc, path string) (store.DocValue, bool) {
	parts := strings.Split(path, ".")
	for i, part := range parts {
		v, ok := field(d, part)
		if !ok {
			return store.DocValue{}, false
		}
		if i == len(parts)-1 {
			return v, true
		}
		if !v.IsDoc() {
			return store.DocValue{}, false
		}
		d = v.Doc()
	}
	return store.DocValue{}, false
}

// field is the value of d's top-level field name, found by Field.
func field(d *store.Doc, name string) (store.DocValue, bool) {
	for i := range d.Len() {
		if n, v := d.Field(i); n == name {
			return v, true
		}
	}
	return store.DocValue{}, false
}

// refMatches is the linear filter: the operators the generator uses, spelled
// out over refPath.
func refMatches(f store.Filter, d *store.Doc) bool {
	switch f := f.(type) {
	case nil, store.All:
		return true
	case store.And:
		for _, kid := range f {
			if !refMatches(kid, d) {
				return false
			}
		}
		return true
	case store.Or:
		for _, kid := range f {
			if refMatches(kid, d) {
				return true
			}
		}
		return false
	case store.Not:
		return !refMatches(f.Inner, d)
	case store.Cond:
		v, ok := refPath(d, f.Path)
		if !ok {
			return false
		}
		vals := []store.DocValue{v}
		if v.IsList() {
			vals = vals[:0]
			for it := v.Elems(); ; {
				e, ok := it.Next()
				if !ok {
					break
				}
				vals = append(vals, e)
			}
		}
		for _, e := range vals {
			if !e.IsScalar() {
				continue
			}
			s := e.Scalar()
			switch f.Op {
			case store.OpEq:
				if s.Equal(f.Value) {
					return true
				}
			case store.OpPrefix:
				if strings.HasPrefix(s.Str(), f.Value.Str()) {
					return true
				}
			case store.OpContains:
				if strings.Contains(strings.ToLower(s.Str()), strings.ToLower(f.Value.Str())) {
					return true
				}
			case store.OpIn:
				for _, w := range f.Set {
					if s.Equal(w) {
						return true
					}
				}
			default:
				panic(fmt.Sprintf("refMatches: operator %d is not modelled", f.Op))
			}
		}
		return false
	}
	panic(fmt.Sprintf("refMatches: filter %T is not modelled", f))
}

func (r *refStore) find(f store.Filter) []int64 {
	var out []int64
	for _, uid := range r.uids {
		if refMatches(f, r.docs[uid]) {
			out = append(out, uid)
		}
	}
	return out
}

func (r *refStore) distinct(path string) map[string]int64 {
	out := map[string]int64{}
	for _, d := range r.docs {
		if v, ok := refPath(d, path); ok && v.IsScalar() && !v.Scalar().IsNull() {
			out[v.Scalar().Str()]++
		}
	}
	return out
}

// groups folds the documents named by uids, in that order, by their scalar
// value at path: a key's place is its first document's.
func (r *refStore) groups(uids []int64, path string) []store.Group {
	var out []store.Group
	for _, uid := range uids {
		v, ok := refPath(r.docs[uid], path)
		if !ok || !v.IsScalar() || v.Scalar().IsNull() {
			continue
		}
		key := v.Scalar().Str()
		i := slices.IndexFunc(out, func(g store.Group) bool { return g.Key == key })
		if i < 0 {
			i = len(out)
			out = append(out, store.Group{Key: key})
		}
		out[i].Count++
	}
	return out
}

func (r *refStore) dataSize() (size int64) {
	for _, d := range r.docs {
		size += d.SizeBytes()
	}
	return size
}

// modelTarget is one router under test with where each uid went.
type modelTarget struct {
	name string
	s    *store.Sharded
	loc  map[int64][2]int64 // uid -> (shard, id)
	// single says the router has one shard, so its order is insertion order.
	single bool
	// remote says results cross the wire codec, which ships listed fields only.
	remote bool
	// twin has the target's shard count and takes one insert per document.
	twin *store.Sharded
	// follower, when set, replicates the target's node, and reads counts
	// the reads the follower answered and those it left to the primary.
	follower *Follower
	reads    *answering
}

// answering counts the calls through it that a node answered, and those
// it refused.
type answering struct {
	Transport
	answered, refused atomic.Int64
}

func (a *answering) Call(ctx context.Context, req *Request) (*Response, error) {
	resp, err := a.Transport.Call(ctx, req)
	if err == nil && resp.Err == nil {
		a.answered.Add(1)
	} else {
		a.refused.Add(1)
	}
	return resp, err
}

func modelTargets(t *testing.T) []*modelTarget {
	t.Helper()
	remote := func(shards int) *store.Sharded {
		node := NewNode("model")
		backends := make([]store.ShardBackend, shards)
		for i := range backends {
			node.AddShard(ShardKey(NSEntities, i), store.NewCollection(NSEntities, 0))
			backends[i] = NewRemoteShard(NSEntities, i, Loopback{Node: node}, nil)
		}
		s, err := store.NewShardedBackends(NSEntities, "name", backends)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	replica := func(shards int) *modelTarget {
		primary, follower := NewNode("model"), newFollowerNode("model-f")
		tg := &modelTarget{name: fmt.Sprintf("replica/%d", shards), remote: true,
			follower: NewFollower(follower, Loopback{Node: primary}, time.Hour),
			reads:    &answering{Transport: Loopback{Node: follower}}}
		backends := make([]store.ShardBackend, shards)
		for i := range backends {
			primary.AddShard(ShardKey(NSEntities, i), store.NewCollection(NSEntities, 0))
			follower.AddShard(ShardKey(NSEntities, i), store.NewCollection(NSEntities, 0))
			backends[i] = NewRemoteShard(NSEntities, i, Loopback{Node: primary}, tg.reads)
		}
		var err error
		if tg.s, err = store.NewShardedBackends(NSEntities, "name", backends); err != nil {
			t.Fatal(err)
		}
		return tg
	}
	targets := []*modelTarget{
		{name: "collection", s: store.NewSharded(NSEntities, "name", 1, 0), single: true},
		{name: "sharded/4", s: store.NewSharded(NSEntities, "name", 4, 0)},
		{name: "remote/1", s: remote(1), single: true, remote: true},
		replica(4),
	}
	for _, tg := range targets {
		tg.loc = map[int64][2]int64{}
		tg.twin = store.NewSharded(NSEntities, "name", tg.s.NumShards(), 0)
	}
	return targets
}

var (
	modelTypes = []string{"Movie", "Person", "Company", "City"}
	// Case variants of one show exercise the Table IV display-name choice.
	modelNames = []string{
		"Matilda", "matilda", "MATILDA", "The Walking Dead", "the walking dead", "The Wolverine",
		"Jersey Boys", "jersey  boys", "Goodfellas", "The Nance", "Walking With Dinosaurs", "Ünïcode İstanbul",
	}
	modelWords   = []string{"grossed", "award-winning", "walking", "dead", "the", "Matilda", "O'Brien", "Boys", "musical", "WALKING"}
	modelTags    = []string{"a", "b", "c"}
	groupPaths   = []string{"type", "tags", "attributes.award_winning", "name"}
	modelIndexes = []store.IndexSpec{
		{Name: "type_1", Path: "type", Kind: store.HashIndex},
		{Name: "name_1", Path: "name", Kind: store.BTreeIndex},
		{Name: "tags_1", Path: "tags", Kind: store.HashIndex},
		{Name: "award_1", Path: "attributes.award_winning", Kind: store.HashIndex},
		{Path: "name", Kind: store.TextIndex},
		{Path: "text", Kind: store.TextIndex},
	}
)

func modelDoc(rng *rand.Rand, uid int64) *store.Doc {
	fields := []store.Field{store.F("uid", store.Num(uid)), store.F("type", store.Str(modelTypes[rng.Intn(len(modelTypes))]))}
	if rng.Intn(10) > 0 {
		fields = append(fields, store.F("name", store.Str(modelNames[rng.Intn(len(modelNames))])))
	}
	if rng.Intn(3) > 0 {
		attrs := []store.Field{store.F("award_winning", store.Str([]string{"true", "false"}[rng.Intn(2)]))}
		if rng.Intn(2) == 0 {
			attrs = append(attrs, store.F("price", store.Num(int64(rng.Intn(90)))))
		}
		fields = append(fields, store.F("attributes", store.Nested(store.NewDoc(attrs...))))
	}
	// tags is absent, a scalar, or a list: a list keeps an unfiltered group
	// count off tags_1.
	switch rng.Intn(4) {
	case 1:
		fields = append(fields, store.F("tags", store.Str(modelTags[rng.Intn(len(modelTags))])))
	case 2:
		fields = append(fields, store.F("tags", store.List(store.Str(modelTags[rng.Intn(len(modelTags))]), store.Str(modelTags[rng.Intn(len(modelTags))]))))
	}
	words := make([]string, 2+rng.Intn(5))
	for i := range words {
		words[i] = modelWords[rng.Intn(len(modelWords))]
	}
	return store.NewDoc(append(fields, store.F("text", store.Str(strings.Join(words, " ")+".")))...)
}

func modelFilter(rng *rand.Rand) store.Filter {
	typ := func() record.Value { return record.String(modelTypes[rng.Intn(len(modelTypes))]) }
	word := func() string { return modelWords[rng.Intn(len(modelWords))] }
	tag := func() record.Value { return record.String(modelTags[rng.Intn(len(modelTags))]) }
	switch rng.Intn(14) {
	case 0:
		return nil
	case 1:
		return store.Eq("type", typ())
	case 2:
		return store.EqStr("name", modelNames[rng.Intn(len(modelNames))])
	case 3:
		return prefixCond("name", []string{"The ", "the", "M", ""}[rng.Intn(4)])
	case 4:
		return store.Contains("name", []string{"walking", "WALKING d", "boys", "İ", "i", "the"}[rng.Intn(6)])
	case 5:
		return store.Contains("text", word())
	case 6:
		return store.Contains("text", word()+" "+word()+" "+word())
	case 7:
		return store.And{store.Eq("type", typ()), store.EqStr("attributes.award_winning", "true")}
	case 8:
		return inCond("type", typ(), typ())
	case 9:
		return store.Or{store.Eq("type", typ()), store.Contains("text", word())}
	case 10:
		return store.Not{Inner: store.Eq("type", typ())}
	case 11:
		return store.Eq("tags", tag())
	case 12:
		return inCond("tags", tag(), tag())
	default:
		return store.And{store.Contains("text", word()), store.Eq("type", typ())}
	}
}

func uidsOf(t *testing.T, docs []*store.Doc) []int64 {
	t.Helper()
	out := make([]int64, len(docs))
	for i, d := range docs {
		v, ok := d.Path("uid")
		uid, isInt := v.Scalar().AsInt()
		if !ok || !isInt {
			t.Fatalf("result document without uid: %v", d)
		}
		out[i] = uid
	}
	return out
}

// topDiscussedByRescan is fuse.Engine.TopDiscussed as it was before it
// issued a filtered query: every shard's whole document list, filtered and
// counted here.
func topDiscussedByRescan(ctx context.Context, entities *store.Sharded) ([]fuse.Discussed, error) {
	merged := map[string]*fuse.Discussed{}
	for shard := 0; shard < entities.NumShards(); shard++ {
		docs, err := findAll(ctx, entities.Backend(shard), nil)
		if err != nil {
			return nil, err
		}
		counts := map[string]*fuse.Discussed{}
		for _, d := range docs {
			if d.PathString("type") != "Movie" || d.PathString("attributes.award_winning") != "true" {
				continue
			}
			name := textutil.Normalize(d.PathString("name"))
			if name == "" {
				continue
			}
			dd, ok := counts[name]
			if !ok {
				words := strings.Fields(d.PathString("name"))
				for i, w := range words {
					if r := []rune(w); r[0] >= 'a' && r[0] <= 'z' {
						r[0] -= 'a' - 'A'
						words[i] = string(r)
					}
				}
				dd = &fuse.Discussed{Name: strings.Join(words, " ")}
				counts[name] = dd
			}
			dd.Mentions++
		}
		for name, d := range counts {
			if got, ok := merged[name]; ok {
				got.Mentions += d.Mentions
			} else {
				merged[name] = d
			}
		}
	}
	out := make([]fuse.Discussed, 0, len(merged))
	for _, d := range merged {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Mentions != out[j].Mentions {
			return out[i].Mentions > out[j].Mentions
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// checkProjection runs q, which lists fields, and holds its answer against
// the whole-document page of the same window: the same documents, every
// listed field equal to the reference's, and off a remote shard no field
// that was not listed.
func checkProjection(t *testing.T, at string, tg *modelTarget, ref *refStore, q store.Query, page store.Result) {
	t.Helper()
	got, err := tg.s.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	uids := uidsOf(t, got.Docs)
	if got.Total != page.Total || !slices.Equal(uids, uidsOf(t, page.Docs)) {
		t.Fatalf("%s fields %v: %v of %d, without the field list %v of %d", at, q.Fields, uids, got.Total, uidsOf(t, page.Docs), page.Total)
	}
	for i, d := range got.Docs {
		want := ref.docs[uids[i]]
		listed := 0
		for _, name := range docNames(want) {
			if !slices.Contains(q.Fields, name) {
				continue
			}
			listed++
			gv, _ := d.Path(name)
			wv, _ := want.Path(name)
			// Values compare as their encodings.
			if !bytes.Equal(store.EncodeDoc(store.NewDoc(store.F(name, gv))), store.EncodeDoc(store.NewDoc(store.F(name, wv)))) {
				t.Fatalf("%s fields %v: uid %d has %s = %v, the reference %v", at, q.Fields, uids[i], name, gv, wv)
			}
		}
		if d.Len() < listed || tg.remote && d.Len() != listed {
			t.Fatalf("%s fields %v: uid %d came back as %v; %d listed fields exist", at, q.Fields, uids[i], d, listed)
		}
	}
}

func TestReadPathAgainstModel(t *testing.T) {
	steps := 250
	if testing.Short() {
		steps = 80
	}
	// Each seed builds its own targets and rngs, so the seeds run side by
	// side.
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runModel(t, seed, steps)
		})
	}
}

func runModel(t *testing.T, seed int64, steps int) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	pulls := rand.New(rand.NewSource(-seed)) // apart from rng, so the ops stay what they were
	ref := &refStore{docs: map[int64]*store.Doc{}}
	targets := modelTargets(t)
	nextUID := int64(1)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			// From half way on tags_1 exists whatever the draws, so the
			// list-valued tags path is grouped both with and without it.
			for _, tg := range targets {
				must(tg.s.EnsureIndexCtx(ctx, modelIndexes[2]))
			}
		}
		// One mutation, applied to the reference and to every router.
		switch op := rng.Intn(13); {
		case op < 11 || len(ref.uids) == 0:
			// One document by the single insert, or a batch of up to twelve.
			batch := make([]*store.Doc, 1)
			if rng.Intn(3) == 0 {
				batch = make([]*store.Doc, 1+rng.Intn(12))
			}
			first := nextUID
			for i := range batch {
				batch[i] = modelDoc(rng, nextUID)
				ref.put(nextUID, batch[i])
				nextUID++
			}
			for _, tg := range targets {
				copies := make([]*store.Doc, len(batch))
				for i, d := range batch {
					copies[i] = cloneDoc(d)
					shard, id, err := tg.twin.InsertCtx(ctx, cloneDoc(d))
					must(err)
					tg.loc[first+int64(i)] = [2]int64{int64(shard), id}
				}
				if len(batch) > 1 {
					must(tg.s.InsertManyCtx(ctx, copies))
					continue
				}
				shard, id, err := tg.s.InsertCtx(ctx, copies[0])
				if want := tg.loc[first]; err != nil || [2]int64{int64(shard), id} != want {
					t.Fatalf("step %d %s: single insert landed at shard %d id %d (%v), the twin's at %v", step, tg.name, shard, id, err, want)
				}
			}
		default:
			ix := modelIndexes[rng.Intn(len(modelIndexes))]
			for _, tg := range targets {
				must(tg.s.EnsureIndexCtx(ctx, ix))
			}
		}

		for _, tg := range targets {
			if tg.follower != nil && pulls.Intn(3) == 0 {
				must(tg.follower.PullOnce())
			}
		}

		f := modelFilter(rng)
		want := ref.find(f)
		offset := []int{0, 1, rng.Intn(len(want) + 2), len(want), len(want) + 3, math.MaxInt}[rng.Intn(6)]
		limit := []int{0, 1, 3, 10, rng.Intn(len(want) + 2), math.MaxInt, store.NoLimit}[rng.Intn(7)]
		// The field list always reads uid, which names the reference document;
		// beyond it: fields every document has, some have, none has, repeats.
		fields := []string{"uid"}
		for range rng.Intn(4) {
			fields = append(fields, []string{"name", "type", "text", "tags", "attributes", "gone", "uid"}[rng.Intn(7)])
		}
		wantSize, wantCount := ref.dataSize(), int64(len(ref.docs))
		var plans []store.Explain
		for _, tg := range targets {
			at := fmt.Sprintf("step %d %s filter %+v", step, tg.name, f)
			whole, err := tg.s.QueryCtx(ctx, store.Query{Filter: f, Limit: store.NoLimit})
			must(err)
			got := uidsOf(t, whole.Docs)
			if whole.Total != int64(len(want)) || len(got) != len(want) {
				t.Fatalf("%s: %d docs, total %d; the reference matches %d", at, len(got), whole.Total, len(want))
			}
			// A prefix scan's key order aside, one shard answers in insertion
			// order whichever access path served it.
			ordered := tg.single
			if c, ok := f.(store.Cond); ok && c.Op == store.OpPrefix {
				ordered = false
			}
			if !ordered {
				got = slices.Clone(got)
				slices.Sort(got)
				want = slices.Clone(want)
				slices.Sort(want)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: uids %v, the reference %v", at, got, want)
			}

			page, err := tg.s.QueryCtx(ctx, store.Query{Filter: f, Offset: offset, Limit: limit})
			must(err)
			lo := min(offset, len(whole.Docs))
			hi := len(whole.Docs)
			if limit >= 0 && limit < hi-lo {
				hi = lo + limit
			}
			if page.Total != whole.Total || !slices.Equal(uidsOf(t, page.Docs), uidsOf(t, whole.Docs[lo:hi])) {
				t.Fatalf("%s offset %d limit %d: page %v of %d, want %v of %d",
					at, offset, limit, uidsOf(t, page.Docs), page.Total, uidsOf(t, whole.Docs[lo:hi]), whole.Total)
			}
			checkProjection(t, at, tg, ref, store.Query{Filter: f, Offset: offset, Limit: limit, Fields: fields}, page)
			count, err := tg.s.QueryCtx(ctx, store.Query{Filter: f})
			if must(err); count.Total != whole.Total || len(count.Docs) != 0 {
				t.Fatalf("%s: count-only %d (%d docs), total %d", at, count.Total, len(count.Docs), whole.Total)
			}
			groupBy := groupPaths[step%len(groupPaths)]
			grouped, err := tg.s.QueryCtx(ctx, store.Query{Filter: f, GroupBy: groupBy})
			wantGroups := ref.groups(uidsOf(t, whole.Docs), groupBy)
			if must(err); grouped.Total != whole.Total || len(grouped.Docs) != 0 || !slices.Equal(grouped.Groups, wantGroups) {
				t.Fatalf("%s grouped by %s: %v, total %d; the reference folds %v of %d", at, groupBy, grouped.Groups, grouped.Total, wantGroups, whole.Total)
			}

			st, err := tg.s.StatsCtx(ctx)
			must(err)
			all, err := tg.s.QueryCtx(ctx, store.Query{})
			if must(err); st.Count != wantCount || all.Total != wantCount {
				t.Fatalf("step %d %s: stats count %d, unfiltered count-only query %d; the reference holds %d",
					step, tg.name, st.Count, all.Total, wantCount)
			}
			wantAvg := int64(0)
			if wantCount > 0 {
				wantAvg = wantSize / wantCount
			}
			if st.DataSize != wantSize || st.AvgObjSize != wantAvg {
				t.Fatalf("step %d %s: stats size %d avg %d; a rescan gives %d, %d",
					step, tg.name, st.DataSize, st.AvgObjSize, wantSize, wantAvg)
			}
			for _, path := range groupPaths {
				got, err := tg.s.DistinctCtx(ctx, path)
				if must(err); !reflect.DeepEqual(got, ref.distinct(path)) {
					t.Fatalf("step %d %s: Distinct(%s) = %v; a rescan gives %v", step, tg.name, path, got, ref.distinct(path))
				}
			}

			top, err := (&fuse.Engine{Entities: tg.s}).TopDiscussed(ctx, 0)
			must(err)
			oldTop, err := topDiscussedByRescan(ctx, tg.s)
			if must(err); !slices.Equal(top, oldTop) {
				t.Fatalf("step %d %s: TopDiscussed %v; the rescan formulation gives %v", step, tg.name, top, oldTop)
			}

			plan, err := tg.s.QueryCtx(ctx, store.Query{Filter: f, Explain: true})
			if must(err); plan.Plan.AccessPath == "" || len(plan.Docs) != 0 {
				t.Fatalf("%s: explain answered %+v", at, plan)
			}
			plans = append(plans, plan.Plan)
		}
		// Every router holds the same indexes, so a plan that crossed the
		// wire says what the local one says.
		for i, p := range plans {
			if p != plans[0] {
				t.Fatalf("step %d filter %+v: %s plans %+v, %s plans %+v", step, f, targets[i].name, p, targets[0].name, plans[0])
			}
		}
	}
	for _, tg := range targets {
		if tg.reads != nil && (tg.reads.answered.Load() == 0 || tg.reads.refused.Load() == 0) {
			t.Errorf("%s: the follower answered %d reads and left %d to the primary; want some of each",
				tg.name, tg.reads.answered.Load(), tg.reads.refused.Load())
		}
	}
}

// docNames lists d's top-level field names in insertion order.
func docNames(d *store.Doc) []string {
	names := make([]string, d.Len())
	for i := range names {
		names[i], _ = d.Field(i)
	}
	return names
}
