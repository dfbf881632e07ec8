package serve

import (
	"errors"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/dterr"
	"repro/internal/core"
	"repro/internal/fuse"
	"repro/internal/live"
	"repro/internal/record"
	"repro/internal/store"
)

// jsonBuf is one response body under construction: the bytes so far, where
// the writer stands in them, and scratch for sorting a string map. Its
// methods append values exactly as json.Encoder with SetIndent("", "  ")
// and its default HTML escaping writes them, so a body holds the bytes
// encoding/json would have written for the same value, without building
// that value or reflecting over it. Bodies are pooled: a request borrows
// one, fills it and sends it, which returns it.
type jsonBuf struct {
	b      []byte
	depth  int  // containers open
	filled bool // the innermost open container holds a member
	// err is the first value JSON cannot hold, a NaN or an infinity; send
	// answers it with a 500 instead of the body.
	err    error
	fields []record.Field // a string map's members, sorted by key
}

var jsonBufs = sync.Pool{New: func() any { return new(jsonBuf) }}

// newBody borrows an empty body.
func newBody() *jsonBuf {
	b := jsonBufs.Get().(*jsonBuf)
	b.reset()
	return b
}

func (b *jsonBuf) reset() {
	b.b, b.depth, b.filled, b.err = b.b[:0], 0, false, nil
}

// dataBody borrows a body and opens the success envelope's data member.
func dataBody() *jsonBuf {
	b := newBody()
	b.open('{')
	b.key("data")
	return b
}

// jsonContentType is the Content-Type header value of every body, shared
// so that setting it allocates nothing.
var jsonContentType = []string{"application/json"}

// send writes the finished body as a status response and returns the body
// to the pool. A body holding a value JSON cannot encode is answered with
// a 500 and an internal error envelope instead, never with the status
// meant for it. The response writer copies the bytes out, and a body whose
// storage grew past store.FrameChunk is dropped rather than pooled, so the
// pool keeps at most that much per body between requests.
func (b *jsonBuf) send(w http.ResponseWriter, status int) {
	if b.err != nil {
		msg := "encoding response: " + b.err.Error()
		b.reset()
		b.errorEnvelope(dterr.CodeInternal, msg)
		status = http.StatusInternalServerError
	}
	b.b = append(b.b, '\n')
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(b.b)
	if cap(b.b) <= store.FrameChunk {
		clear(b.fields[:cap(b.fields)]) // hold no strings of a past response
		jsonBufs.Put(b)
	}
}

// sendData closes the success envelope and sends it.
func (b *jsonBuf) sendData(w http.ResponseWriter, status int) {
	b.close('}')
	b.send(w, status)
}

// sendRead closes a /v1 read's envelope and sends it with status 200,
// surfacing degradation: when the tracker recorded missing shards the
// envelope carries the degraded member and the response is marked
// degraded.
func (b *jsonBuf) sendRead(w http.ResponseWriter, pr *store.PartialReads) {
	if n := pr.Missing(); n > 0 {
		markDegraded(w, n)
		b.key("degraded").open('{')
		b.key("shards_missing").integer(int64(n))
		b.close('}')
	}
	b.sendData(w, http.StatusOK)
}

// errorEnvelope appends the whole error envelope.
func (b *jsonBuf) errorEnvelope(code dterr.Code, msg string) {
	b.open('{')
	b.key("error").open('{')
	b.key("code").str(string(code))
	b.key("message").str(msg)
	b.close('}')
	b.close('}')
}

// ---- structure ---------------------------------------------------------

// open starts an object ('{') or an array ('[').
func (b *jsonBuf) open(c byte) {
	b.b = append(b.b, c)
	b.depth++
	b.filled = false
}

// close ends the innermost container with c; an empty one stays "{}" or
// "[]" on one line.
func (b *jsonBuf) close(c byte) {
	b.depth--
	if b.filled {
		b.newline()
	}
	b.b = append(b.b, c)
	b.filled = true
}

// next starts a member of the innermost container: a comma after the one
// before, then a new indented line.
func (b *jsonBuf) next() {
	if b.filled {
		b.b = append(b.b, ',')
	}
	b.newline()
	b.filled = true
}

func (b *jsonBuf) newline() {
	b.b = append(b.b, '\n')
	for range b.depth {
		b.b = append(b.b, ' ', ' ')
	}
}

// key starts an object member named k; its value comes next.
func (b *jsonBuf) key(k string) *jsonBuf {
	b.next()
	b.b = appendString(b.b, k)
	b.b = append(b.b, ':', ' ')
	return b
}

// ---- values ------------------------------------------------------------

func (b *jsonBuf) str(s string) { b.b = appendString(b.b, s) }

func (b *jsonBuf) integer(i int64) { b.b = strconv.AppendInt(b.b, i, 10) }

func (b *jsonBuf) unsigned(u uint64) { b.b = strconv.AppendUint(b.b, u, 10) }

func (b *jsonBuf) boolean(v bool) { b.b = strconv.AppendBool(b.b, v) }

// float appends f as encoding/json's float encoder does: 'f' format, or
// 'e' below 1e-6 and from 1e21 on, its exponent without a leading zero. A
// NaN or an infinity is an error, the one encoding/json reports.
func (b *jsonBuf) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if b.err == nil {
			b.err = errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b.b = strconv.AppendFloat(b.b, f, format, -1, 64)
	if format == 'e' {
		// e-07 becomes e-7
		if n := len(b.b); n >= 4 && b.b[n-4] == 'e' && b.b[n-3] == '-' && b.b[n-2] == '0' {
			b.b[n-2] = b.b[n-1]
			b.b = b.b[:n-1]
		}
	}
}

// scalar appends v's Str rendering as a JSON string.
func (b *jsonBuf) scalar(v record.Value) {
	if v.Kind() == record.KindString {
		b.b = appendString(b.b, v.Str())
		return
	}
	var tmp [64]byte
	b.b = appendString(b.b, v.AppendStr(tmp[:0]))
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does with
// HTML escaping on: '"' and '\\' backslashed, \b \f \n \r \t in their
// short forms, other control bytes and '<', '>', '&' as \u00XX, U+2028 and
// U+2029 as \u2028 and \u2029, and each byte of invalid UTF-8 as \ufffd.
func appendString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// ---- string maps -------------------------------------------------------

// record appends an object of r's non-null fields, each value its Str
// rendering.
func (b *jsonBuf) record(r *record.Record) {
	fs := b.fields[:0]
	for _, f := range r.Fields() {
		if !f.Value.IsNull() {
			fs = append(fs, f)
		}
	}
	b.strMap(fs)
}

// doc appends an object of d's scalar top-level fields, each value its Str
// rendering.
func (b *jsonBuf) doc(d *store.Doc) {
	fs := b.fields[:0]
	for i := range d.Len() {
		if name, v := d.Field(i); v.IsScalar() {
			fs = append(fs, record.Field{Name: name, Value: v.Scalar()})
		}
	}
	b.strMap(fs)
}

// strMap appends fs, which it sorts, as the object encoding/json writes for
// a map[string]string filled from fs in order: keys byte-wise ascending, a
// repeated key holding its last value.
func (b *jsonBuf) strMap(fs []record.Field) {
	b.fields = fs
	slices.SortStableFunc(fs, func(x, y record.Field) int { return strings.Compare(x.Name, y.Name) })
	b.open('{')
	for i, f := range fs {
		if i+1 < len(fs) && fs[i+1].Name == f.Name {
			continue
		}
		b.key(f.Name).scalar(f.Value)
	}
	b.close('}')
}

// ---- payloads ----------------------------------------------------------

// window cuts a list endpoint's page from all its items. An offset past
// the end yields an empty page, and the offset echoed is clamped to the
// total.
func window[T any](items []T, limit, offset int) ([]T, int) {
	offset = min(offset, len(items))
	return items[offset:min(offset+limit, len(items))], offset
}

// page appends the data payload of every /v1 list endpoint: the window's
// items, each appended by item, then the whole list's total and the window
// echoed.
func page[T any](b *jsonBuf, items []T, total, limit, offset int, item func(*jsonBuf, T)) {
	b.open('{')
	b.key("items").open('[')
	for _, it := range items {
		b.next()
		item(b, it)
	}
	b.close(']')
	b.key("total").integer(int64(total))
	b.key("limit").integer(int64(limit))
	b.key("offset").integer(int64(offset))
	b.close('}')
}

// show appends the Table V and Table VI views of one show.
func (b *jsonBuf) show(web, fused *record.Record) {
	b.open('{')
	b.key("web_text").record(web)
	b.key("fused").record(fused)
	b.close('}')
}

func (b *jsonBuf) typeCount(r core.TypeCount) {
	b.open('{')
	b.key("Type").str(r.Type)
	b.key("Count").integer(r.Count)
	b.close('}')
}

func (b *jsonBuf) discussed(r fuse.Discussed) {
	b.open('{')
	b.key("Name").str(r.Name)
	b.key("Mentions").integer(r.Mentions)
	b.close('}')
}

func (b *jsonBuf) pricedShow(r fuse.PricedShow) {
	b.open('{')
	b.key("Show").str(r.Show)
	b.key("Price").float(r.Price)
	b.key("Raw").str(r.Raw)
	b.close('}')
}

func (b *jsonBuf) storeStats(s store.Stats) {
	b.open('{')
	b.key("NS").str(s.NS)
	b.key("Count").integer(s.Count)
	b.key("NumExtents").integer(int64(s.NumExtents))
	b.key("NIndexes").integer(int64(s.NIndexes))
	b.key("LastExtentSize").integer(s.LastExtentSize)
	b.key("TotalIndexSize").integer(s.TotalIndexSize)
	b.key("DataSize").integer(s.DataSize)
	b.key("AvgObjSize").integer(s.AvgObjSize)
	b.close('}')
}

func (b *jsonBuf) liveStats(s live.Stats) {
	b.open('{')
	b.key("queue_depth").integer(int64(s.QueueDepth))
	b.key("queue_capacity").integer(int64(s.QueueCapacity))
	b.key("pending_events").integer(int64(s.Pending))
	b.key("queued_bytes").integer(s.QueuedBytes)
	b.key("text_events").integer(s.TextEvents)
	b.key("record_events").integer(s.RecordEvents)
	b.key("fragments_ingested").integer(s.Fragments)
	b.key("records_ingested").integer(s.Records)
	b.key("instances_inserted").integer(s.Instances)
	b.key("entities_inserted").integer(s.Entities)
	b.key("batches").integer(s.Batches)
	b.key("avg_batch_ms").float(s.AvgBatchMs)
	b.key("last_batch_ms").float(s.LastBatchMs)
	b.key("fused_refreshes").integer(s.FusedRefreshes)
	b.key("fused_dirty").boolean(s.FusedDirty)
	b.key("apply_errors").integer(s.ApplyErrors)
	b.key("wal_size_bytes").integer(s.WALSizeBytes)
	b.key("wal_events").integer(s.WALEvents)
	b.key("next_seq").unsigned(s.NextSeq)
	b.key("replay_applied").integer(int64(s.ReplayApplied))
	b.key("replay_skipped").integer(int64(s.ReplaySkipped))
	b.key("replay_errors").integer(int64(s.ReplayErrors))
	b.key("replay_truncated").boolean(s.ReplayTruncated)
	b.key("closed").boolean(s.Closed)
	if s.LastError != "" {
		b.key("last_error").str(s.LastError)
	}
	b.close('}')
}
