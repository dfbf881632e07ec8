package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/quick"

	"repro/dterr"
	"repro/internal/core"
	"repro/internal/fuse"
	"repro/internal/live"
	"repro/internal/record"
	"repro/internal/store"
)

// refBody is what the server wrote for v before bodies were appended:
// encoding/json, indented two spaces, HTML escaping on. It is the
// independent reference every appender test compares with.
func refBody(v any) (string, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.String(), err
}

// refDocMap is a find item as a map: the document's scalar top-level
// fields, each its Str rendering.
func refDocMap(d *store.Doc) map[string]string {
	m := map[string]string{}
	for i := range d.Len() {
		if name, v := d.Field(i); v.IsScalar() {
			m[name] = v.Scalar().Str()
		}
	}
	return m
}

// refList is the data payload of a list endpoint, as a struct.
type refList struct {
	Items  any `json:"items"`
	Total  int `json:"total"`
	Limit  int `json:"limit"`
	Offset int `json:"offset"`
}

// refPage cuts a page from all items the way the list endpoints did.
func refPage[T any](items []T, limit, offset int) refList {
	total := len(items)
	offset = min(offset, total)
	window := items[offset:min(offset+limit, total)]
	if window == nil {
		window = []T{}
	}
	return refList{Items: window, Total: total, Limit: limit, Offset: offset}
}

// appended runs fill on a body and returns what send writes, with the
// status.
func appended(fill func(b *jsonBuf)) (string, int) {
	rec := httptest.NewRecorder()
	b := newBody()
	fill(b)
	b.send(rec, http.StatusOK)
	return rec.Body.String(), rec.Code
}

// dataOf wraps a payload appender in the success envelope.
func dataOf(fill func(b *jsonBuf)) func(b *jsonBuf) {
	return func(b *jsonBuf) {
		b.open('{')
		fill(b.key("data"))
		b.close('}')
	}
}

// checkMatchesRef fails t unless the appended body is refBody(want), or,
// when encoding/json refuses want, the 500 envelope carrying its error.
func checkMatchesRef(t *testing.T, fill func(b *jsonBuf), want any) {
	t.Helper()
	got, code := appended(fill)
	ref, err := refBody(want)
	if err != nil {
		var ue *json.UnsupportedValueError
		if !errors.As(err, &ue) {
			t.Fatalf("encoding/json failed with %v", err)
		}
		ref, _ = refBody(map[string]any{"error": map[string]string{"code": "internal", "message": "encoding response: " + err.Error()}})
		if code != http.StatusInternalServerError {
			t.Errorf("unencodable body answered %d, want 500", code)
		}
	}
	if got != ref {
		t.Errorf("appended body differs from encoding/json\ngot:\n%s\nwant:\n%s", got, ref)
	}
}

// FuzzV1EncodeMatchesEncodingJSON: a string map appended from fields —
// arbitrary keys and values, a repeated key among them — is byte for byte
// what encoding/json writes for the map[string]string filled from the same
// fields in order, inside the envelope; and a float appended as a list
// item's price is what encoding/json writes for it, or the same error.
func FuzzV1EncodeMatchesEncodingJSON(f *testing.F) {
	f.Add("SHOW_NAME", "Matilda", "TEXT_FEED", 27.5)
	f.Add(awkward, "<&>", "\u2028\u2029\xff\xfe", 1e-7)
	f.Add("", "", "", math.Inf(1))
	f.Add("a\x00b", "\"\\", "é", -1e21)
	f.Add("z", "y", "z", math.NaN())
	f.Fuzz(func(t *testing.T, a, b, c string, price float64) {
		fields := []record.Field{
			{Name: a, Value: record.String(b)},
			{Name: b, Value: record.String(c)},
			{Name: c, Value: record.Int(int64(len(a)))},
			{Name: a, Value: record.String(c)},
			{Name: "price", Value: record.Float(price)},
		}
		m := map[string]string{}
		for _, f := range fields {
			m[f.Name] = f.Value.Str()
		}
		checkMatchesRef(t, dataOf(func(b *jsonBuf) { b.strMap(append([]record.Field(nil), fields...)) }),
			map[string]any{"data": m})

		rows := []fuse.PricedShow{{Show: a, Price: price, Raw: b}}
		checkMatchesRef(t, dataOf(func(b *jsonBuf) { page(b, rows, 1, 10, 0, (*jsonBuf).pricedShow) }),
			map[string]any{"data": refPage(rows, 10, 0)})
	})
}

// TestTypedPayloadsMatchEncodingJSON: every typed payload, filled with
// random values, is appended byte for byte as encoding/json writes it. A
// field added to one of these structs without its appender line fails
// here.
func TestTypedPayloadsMatchEncodingJSON(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	check := func(name string, fn any) {
		t.Run(name, func(t *testing.T) {
			if err := quick.Check(fn, cfg); err != nil {
				t.Error(err)
			}
		})
	}
	// Each property appends the payload and compares, failing through t;
	// quick only supplies the values.
	check("TypeCount", func(rows []core.TypeCount, limit, offset uint8) bool {
		items, off := window(rows, int(limit), int(offset))
		checkMatchesRef(t, dataOf(func(b *jsonBuf) { page(b, items, len(rows), int(limit), off, (*jsonBuf).typeCount) }),
			map[string]any{"data": refPage(rows, int(limit), int(offset))})
		return true
	})
	check("Discussed", func(rows []fuse.Discussed, limit, offset uint8) bool {
		items, off := window(rows, int(limit), int(offset))
		checkMatchesRef(t, dataOf(func(b *jsonBuf) { page(b, items, len(rows), int(limit), off, (*jsonBuf).discussed) }),
			map[string]any{"data": refPage(rows, int(limit), int(offset))})
		return true
	})
	check("PricedShow", func(rows []fuse.PricedShow, scale int8) bool {
		for i := range rows {
			rows[i].Price = math.Ldexp(rows[i].Price, int(scale)*8) // reach every exponent, not only huge ones
		}
		checkMatchesRef(t, dataOf(func(b *jsonBuf) { page(b, rows, len(rows), len(rows), 0, (*jsonBuf).pricedShow) }),
			map[string]any{"data": refPage(rows, len(rows), 0)})
		return true
	})
	check("store.Stats", func(inst, ent store.Stats) bool {
		checkMatchesRef(t, dataOf(func(b *jsonBuf) {
			b.open('{')
			b.key("entity").storeStats(ent)
			b.key("instance").storeStats(inst)
			b.close('}')
		}), map[string]any{"data": map[string]store.Stats{"instance": inst, "entity": ent}})
		return true
	})
	check("live.Stats", func(s live.Stats, scale int8, noErr bool) bool {
		s.AvgBatchMs = math.Ldexp(s.AvgBatchMs, int(scale)*8)
		s.LastBatchMs = math.Ldexp(s.LastBatchMs, -int(scale)*8)
		if noErr {
			s.LastError = ""
		}
		checkMatchesRef(t, dataOf(func(b *jsonBuf) { b.liveStats(s) }), map[string]any{"data": s})
		return true
	})
	check("show", func(web, fused map[string]string) bool {
		w, f := recordOf(web), recordOf(fused)
		checkMatchesRef(t, dataOf(func(b *jsonBuf) { b.show(w, f) }),
			map[string]any{"data": struct {
				WebText map[string]string `json:"web_text"`
				Fused   map[string]string `json:"fused"`
			}{refRecordMap(w), refRecordMap(f)}})
		return true
	})
	check("accepted", func(n int) bool {
		rec := httptest.NewRecorder()
		writeAccepted(rec, n)
		want, _ := refBody(map[string]any{"data": map[string]int{"accepted": n}})
		if rec.Body.String() != want || rec.Code != http.StatusAccepted {
			t.Errorf("accepted %d: %d %s, want %s", n, rec.Code, rec.Body, want)
		}
		return true
	})
	check("error", func(code, msg string) bool {
		checkMatchesRef(t, func(b *jsonBuf) { b.errorEnvelope(dterr.Code(code), msg) },
			map[string]any{"error": map[string]string{"code": code, "message": msg}})
		return true
	})
	check("degraded", func(rows []fuse.Discussed, missing uint8) bool {
		n := int(missing) + 1
		rec := httptest.NewRecorder()
		ctx, pr := store.WithPartialReads(context.Background())
		for i := range n {
			store.AbsorbShardError(ctx, "dt.entity", i, dterr.ErrBusy)
		}
		b := dataBody()
		page(b, rows, len(rows), len(rows), 0, (*jsonBuf).discussed)
		b.sendRead(rec, pr)
		want, _ := refBody(struct {
			Data     any            `json:"data"`
			Degraded map[string]int `json:"degraded"`
		}{refPage(rows, len(rows), 0), map[string]int{"shards_missing": n}})
		if rec.Body.String() != want {
			t.Errorf("degraded body:\n%s\nwant:\n%s", rec.Body, want)
		}
		return true
	})
}

// recordOf is a record holding m's members as string fields, and a null
// one.
func recordOf(m map[string]string) *record.Record {
	r := record.New()
	r.Set("NULL_FIELD", record.Null)
	for k, v := range m {
		r.Set(k, record.String(v))
	}
	return r
}

// refRecordMap is a show view's record as a map: its non-null fields, each
// its Str rendering.
func refRecordMap(r *record.Record) map[string]string {
	m := map[string]string{}
	for _, f := range r.Fields() {
		if !f.Value.IsNull() {
			m[f.Name] = f.Value.Str()
		}
	}
	return m
}
