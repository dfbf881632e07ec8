package store

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/record"
)

// collectionModel is a collection as a plain list: ids ascending and their
// documents, appended on insert and replay, found by walking, with no
// index. Its queries test every document with Filter.Matches.
type collectionModel struct {
	ids  []int64
	docs []*Doc
	next int64
	// btree says a B-tree index over name exists, so a prefix query on name
	// lists its matches in key order.
	btree bool
}

func (m *collectionModel) find(id int64) (int, bool) {
	for i, held := range m.ids {
		if held == id {
			return i, true
		}
	}
	return 0, false
}

func (m *collectionModel) add(id int64, d *Doc) {
	m.ids = append(m.ids, id)
	m.docs = append(m.docs, d)
	m.next = max(m.next, id+1)
}

// pick maps a byte to an id in [0, next+1]: held ids, ids a replay
// jumped, zero and ids above every one handed out.
func (m *collectionModel) pick(b byte) int64 { return int64(b) % (m.next + 2) }

func (m *collectionModel) query(q Query) Result {
	var matches []*Doc
	for _, d := range m.docs {
		if q.Filter == nil || q.Filter.Matches(d) {
			matches = append(matches, d)
		}
	}
	if c, ok := q.Filter.(Cond); ok && c.Op == OpPrefix && m.btree {
		slices.SortStableFunc(matches, func(a, b *Doc) int { return strings.Compare(a.PathString(c.Path), b.PathString(c.Path)) })
	}
	res := Result{Total: int64(len(matches))}
	for _, d := range matches {
		v, ok := d.Path(q.GroupBy)
		if q.GroupBy == "" || !ok {
			continue
		}
		key, ok := indexKey(v)
		if !ok {
			continue
		}
		if i := slices.IndexFunc(res.Groups, func(g Group) bool { return g.Key == key }); i >= 0 {
			res.Groups[i].Count++
		} else {
			res.Groups = append(res.Groups, Group{Key: key, Count: 1})
		}
	}
	window := matches[min(max(q.Offset, 0), len(matches)):]
	if q.Limit >= 0 {
		window = window[:min(q.Limit, len(window))]
	}
	res.Docs = window
	return res
}

// modelDoc is a small document drawn from two bytes: a name (two of them
// share the prefix "Ma", and one is the string "1984", the number that
// renders like it, or the integer 1000000 or the float 1e+06, which are equal
// and render apart), a type that is a string, absent or a list, a text that
// may mention Matilda, and a number.
func modelDoc(a, b byte) *Doc {
	names := []string{"Matilda", "Wicked", "Once", "Mamma Mia", "Annie", "1984"}
	types := []string{"Movie", "Person", "Company"}
	texts := []string{"Matilda grossed a million.", "The award-winning show runs. Matilda!", "A walk in the park", ""}
	name := Str(names[a%6])
	switch {
	case a%6 == 5 && a/6%4 == 1:
		name = Num(1984)
	case a%6 == 5 && a/6%4 == 2:
		name = Num(1000000)
	case a%6 == 5 && a/6%4 == 3:
		name = Scalar(record.Float(1e6))
	case a/6%2 == 1:
		name = Str(names[a%6] + " II")
	}
	fields := []Field{F("name", name)}
	switch b % 5 {
	case 3:
	case 4:
		fields = append(fields, F("type", List(Str(types[a%3]), Str(types[(a+1)%3]))))
	default:
		fields = append(fields, F("type", Str(types[b%5])))
	}
	if text := texts[b/5%4]; text != "" {
		fields = append(fields, F("text", Str(text)))
	}
	return NewDoc(append(fields, F("mentions", Num(int64(a))))...)
}

// FuzzCollectionMatchesModel: any sequence of Insert, InsertMany,
// ApplyReplay and index creation leaves a collection that answers every
// query — by scan, hash index, B-tree point, set and prefix lookup and text
// index, in any window, grouped by a path an index counts or not — as a
// plain id-sorted list filtered by Filter.Matches does, with the same Count and data size, and whose snapshot loads back to
// the same documents under the same ids. A replay is refused exactly when
// its id is not above every id held, a held one included; one that jumps
// ids leaves gaps for lookups by id to search over. Each three input bytes
// are one operation.
func FuzzCollectionMatchesModel(f *testing.F) {
	var cycle, build []byte
	for i := 0; i < 60; i++ {
		cycle = append(cycle, byte(i%4), byte(7*i), byte(11*i+3))
	}
	for i := 0; i < 20; i++ {
		build = append(build, 1, byte(i), byte(3*i))
	}
	build = append(build, 3, 0, 0, 3, 0, 1, 3, 0, 2, 2, 4, 0, 2, 83, 9, 2, 5, 20, 2, 200, 1, 2, 90, 0, 0, 1, 2)
	f.Add(cycle)
	f.Add(build)
	// The integer 1000000 and the float 1e+06 under name_1, indexed
	// before and after they are inserted.
	f.Add([]byte{0, 23, 0, 0, 17, 1, 3, 0, 1, 0, 17, 2, 0, 23, 5})
	f.Add([]byte{3, 0, 1, 0, 17, 0, 1, 23, 0, 0, 23, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 600)]
		c := NewCollection("dt.x", 256)
		m := &collectionModel{next: 1}
		for ; len(data) >= 3; data = data[3:] {
			op, a, b := data[0], data[1], data[2]
			switch op % 4 {
			case 0:
				d := modelDoc(a, b)
				if id := c.Insert(d); id != m.next {
					t.Fatalf("Insert gave id %d, want %d", id, m.next)
				}
				m.add(m.next, d)
			case 1:
				docs := make([]*Doc, 1+b%4)
				for i := range docs {
					docs[i] = modelDoc(a+byte(i), b/4+byte(i))
				}
				for i, id := range c.InsertMany(docs) {
					if id != m.next {
						t.Fatalf("InsertMany gave id %d, want %d", id, m.next)
					}
					m.add(id, docs[i])
				}
			case 2:
				id, d := m.pick(a), modelDoc(b, a+1)
				_, held := m.find(id)
				fresh := id > 0 && (len(m.ids) == 0 || id > m.ids[len(m.ids)-1])
				if err := c.ApplyReplay(id, d); fresh != (err == nil) {
					t.Fatalf("ApplyReplay(%d) = %v; held %v, above every id held %v", id, err, held, fresh)
				}
				if fresh {
					m.add(id, d)
				}
			case 3:
				switch b % 3 {
				case 0:
					c.EnsureIndex(IndexSpec{Name: "type_1", Path: "type", Kind: HashIndex})
				case 1:
					c.EnsureIndex(IndexSpec{Name: "name_1", Path: "name", Kind: BTreeIndex})
					m.btree = true
				case 2:
					c.EnsureIndex(IndexSpec{Path: "text", Kind: TextIndex})
				}
			}
		}
		checkAgainstModel(t, c, m)
	})
}

// checkAgainstModel compares c with m on every access path and window, and
// c's snapshot with m's documents.
func checkAgainstModel(t *testing.T, c *Collection, m *collectionModel) {
	t.Helper()
	filters := []Filter{
		nil,
		EqStr("type", "Movie"),
		Cond{Path: "type", Op: OpIn, Set: []record.Value{record.String("Company"), record.String("Movie")}},
		Cond{Path: "name", Op: OpPrefix, Value: record.String("Ma")},
		EqStr("name", "Wicked II"),
		EqStr("name", "1984"),
		Eq("name", record.Int(1984)),
		Eq("name", record.Int(1000000)),
		Eq("name", record.Float(1e6)),
		Cond{Path: "name", Op: OpIn, Set: []record.Value{record.Float(1e6), record.String("Once")}},
		Cond{Path: "name", Op: OpIn, Set: []record.Value{record.String("Once"), record.Int(1984), record.String("Annie II")}},
		Cond{Path: "name", Op: OpIn, Set: []record.Value{record.String("Annie"), record.String("1984")}},
		Contains("text", "matilda"),
		Contains("text", "show runs"),
		And{EqStr("type", "Person"), Cond{Path: "mentions", Op: OpGt, Value: record.Int(100)}},
	}
	windows := [][2]int{{0, NoLimit}, {0, 0}, {0, 1}, {1, 2}, {2, 3}, {3, NoLimit}}
	for _, f := range filters {
		for _, w := range windows {
			for _, groupBy := range []string{"", "type", "name"} {
				q := Query{Filter: f, Offset: w[0], Limit: w[1], GroupBy: groupBy}
				got, want := c.Query(q), m.query(q)
				if got.Total != want.Total || !slices.Equal(got.Docs, want.Docs) || !slices.Equal(got.Groups, want.Groups) {
					t.Fatalf("%+v by %s: %d matches %v groups %v\nwant %d matches %v groups %v",
						q, explain(c, f).AccessPath, got.Total, got.Docs, got.Groups, want.Total, want.Docs, want.Groups)
				}
			}
		}
	}
	var size int64
	for _, d := range m.docs {
		size += d.SizeBytes()
	}
	if st := c.Stats(); c.Count() != int64(len(m.docs)) || st.Count != c.Count() || st.DataSize != size {
		t.Fatalf("Count %d, stats %+v; want %d documents of %d bytes", c.Count(), st, len(m.docs), size)
	}
	image := snapshotBytes(t, c)
	back, err := ReadSnapshot(bytes.NewReader(image))
	if err != nil {
		t.Fatalf("reading the collection's snapshot: %v", err)
	}
	ids, docs := members(back)
	if !slices.Equal(ids, m.ids) {
		t.Fatalf("the snapshot holds ids %v, want %v", ids, m.ids)
	}
	for i, d := range docs {
		if !bytes.Equal(EncodeDoc(d), EncodeDoc(m.docs[i])) {
			t.Fatalf("the snapshot holds %v under id %d, want %v", d, ids[i], m.docs[i])
		}
	}
	if back.Stats() != c.Stats() || !bytes.Equal(snapshotBytes(t, back), image) {
		t.Fatalf("the loaded snapshot has stats %+v and writes another image; want %+v", back.Stats(), c.Stats())
	}
}
