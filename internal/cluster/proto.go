// Package cluster lets the sharded store span processes: a length-prefixed
// binary wire protocol over TCP reusing the store codec and CRC framing, a
// RemoteShard client implementing store.ShardBackend, a coordinator that
// assembles routers over remote shards from a static cluster.json
// membership table, and primary→follower replication — a follower pulls
// its primary's shard image above the last id it holds — for replicated
// snapshot reads with a read-your-writes generation check.
// An in-process loopback transport exercises the full codec without
// sockets, which is how most of the test suite runs.
//
// A filtered read is one frame each way, OpQuery: the request carries the
// filter with an offset and a limit, the response the window's documents
// and the shard's exact match total — or only the total (limit 0), or the
// shard's plan for the filter (explain). The filter travels as a document
// of the store codec, written straight from the store.Filter and read
// straight back into one (store.PutFilter, store.ReadFilter), so neither
// side builds the document. The router asks every shard for its first
// offset+limit matches, so a page view moves pages, not shards. A query may
// also list the top-level fields its caller reads; the node then encodes
// only those, straight from the stored documents, so a page moves fields,
// not documents. And it may name a group-by path; the response then
// carries each key at that path with its count, so a ranking moves keys,
// not matches.
//
// An insert is a frame per shard, not per document: OpInsert's body is a
// document list in the codec query responses use (store.DocList reads
// both), cut into chunks of about store.FrameChunk (256 KiB), and a node
// decodes the whole list before it stores the first document. A chunk is
// that size so that an insert frame fits the node's reused request buffer,
// like a read's, and so that a coordinator loading four shards at once
// holds about 1 MiB of frames.
//
// An index is one spec on every layer (store.IndexSpec: name, path, kind,
// a text index being a kind): OpCreateIndex carries it in the bytes a
// snapshot header holds for an index (store.PutIndexSpec), and a node
// logs the same bytes as its WAL event. A coordinator learns whether a
// node is warm from the generation every response carries, here that of
// an OpStats sent to the primary.
//
// A read's bytes are buffered once on each side of the wire. A node reads
// each request frame into its connection's request buffer and encodes the
// response — header, then the result straight from the stored documents —
// into its connection's response buffer, which it writes whole under one
// CRC. A request's body aliases the request buffer, so a handler that keeps
// it past the request copies it. The coordinator writes a request's header
// and its already-encoded body under one CRC without joining them, and
// reads each response into storage of its exact size, which outlives the
// pooled connection: a query reply's document list stays encoded in it
// (store.Result.Encoded aliases the frame) until the router cuts its window
// and builds only the documents the window keeps, copying their strings
// out of the frame. Both node buffers are store.FrameBuf storage: one that
// grew past store.FrameChunk (256 KiB) for a large frame is dropped after
// it, so an idle connection holds at most that much each way.
package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/dterr"
	"repro/internal/store"
)

// Operation codes of the wire protocol. One request frame carries one op
// against one hosted shard; responses reuse the same CRC framing.
const (
	OpPing byte = iota + 1
	// OpInsert stores a document list (putDocList) in order and answers
	// with the ids (EncodeIDs).
	OpInsert
	// Codes 3 and 4 were a document's update and delete. The store only
	// appends, so a node answers them, like any unknown op, with
	// invalid_argument.
	_
	_
	// OpQuery is the one filtered read: a window of the matching documents,
	// in the shard's order or best first by a rank, plus their exact total
	// and group counts, the total alone (limit 0), or the shard's plan for
	// the filter (explain). See EncodeQuery and putResult.
	OpQuery
	// OpStats answers the shard's storage statistics (EncodeStats).
	OpStats
	// OpCreateIndex's body is an index spec (store.PutIndexSpec), a text
	// index's among them; an index the shard already has is no write.
	OpCreateIndex
	// Code 8 was a text index's creation, now an OpCreateIndex of kind
	// store.TextIndex; a node answers it with invalid_argument.
	_
	// OpPull's body is the follower's highest id (a uvarint, 0 when empty),
	// its answer the shard's image above it (Collection.WriteSnapshot).
	OpPull
	// Code 10, the last, was a probe of a shard's generation and count;
	// every response carries the generation (Response.Gen), so Cluster.Warm
	// sends OpStats instead, and a node answers 10 with invalid_argument.
)

// MaxFrameLen bounds a wire frame so a corrupt or hostile length header
// cannot make the reader allocate an arbitrary buffer. The largest frame is
// the OpPull answer to a follower that holds nothing, which ships it the
// whole shard; 64 MB is ~30x the scaled-down deployment's whole corpus.
const MaxFrameLen uint32 = 64 << 20

// Shard WAL event kinds, carried as the store.EventLog kind byte of a
// node's shard WAL. An insert's payload is the 8-byte little-endian id,
// then the encoded document (store.EncodeIDDoc) — byte for byte a
// snapshot's document frame, which a durable follower logs as it arrived.
// An index creation's payload is its spec, the OpCreateIndex body. Kinds 2
// and 3 were a document's update and delete; the store only appends, so a
// WAL holding one fails to apply, and the error names the kind. Kind 5 was
// a text index's creation, its path alone; a node writes it no more, and
// still replays it (see applyEvent).
const (
	EvInsert      byte = 1
	EvCreateIndex byte = 4
)

// Request is one wire request. Body is the op-specific payload, already
// encoded; MinGen is the read-your-writes fence — a replica must have
// applied at least this generation to serve a read, and answers busy
// otherwise.
type Request struct {
	ID     uint64
	Op     byte
	Shard  string // "ns/index", e.g. "dt.entity/2"
	MinGen uint64
	Body   []byte
}

// writeRequest writes req's frame to w: its header (id, op, shard, fence),
// encoded into head, and its body, under one CRC, without copying the body.
func writeRequest(w *bufio.Writer, head *bytes.Buffer, req *Request) error {
	head.Reset()
	store.PutUvarint(head, req.ID)
	head.WriteByte(req.Op)
	store.PutString(head, req.Shard)
	store.PutUvarint(head, req.MinGen)
	return store.WriteFrameParts(w, head.Bytes(), req.Body)
}

// DecodeRequest parses a request frame. Body aliases data, so it is valid
// only as long as data is.
func DecodeRequest(data []byte) (*Request, error) {
	rd := bytes.NewReader(data)
	id, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, dterr.Wrapf(dterr.CodeInternal, err, "cluster: request id")
	}
	op, err := rd.ReadByte()
	if err != nil {
		return nil, dterr.Wrapf(dterr.CodeInternal, err, "cluster: request op")
	}
	shard, err := store.GetString(rd)
	if err != nil {
		return nil, dterr.Wrapf(dterr.CodeInternal, err, "cluster: request shard")
	}
	minGen, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, dterr.Wrapf(dterr.CodeInternal, err, "cluster: request mingen")
	}
	return &Request{ID: id, Op: op, Shard: shard, MinGen: minGen, Body: data[len(data)-rd.Len():]}, nil
}

// Response is one wire response. Exactly one of Err and Body is
// meaningful; Gen is the responding shard's mutation generation, which
// write callers record as their read-your-writes fence.
type Response struct {
	ID   uint64
	Gen  uint64
	Body []byte
	Err  *dterr.Error
}

// respFrame builds one response to request id straight into the frame
// fb sends: the header (id, status, generation), then the body.
type respFrame struct {
	fb *store.FrameBuf
	id uint64
}

// ok begins a success response at generation gen and returns the buffer
// its body is encoded into.
func (r respFrame) ok(gen uint64) *bytes.Buffer {
	buf := r.fb.Begin()
	store.PutUvarint(buf, r.id)
	buf.WriteByte(0)
	store.PutUvarint(buf, gen)
	return buf
}

// fail makes the response the error e, discarding any body begun. Errors
// travel as (code, message) and are rebuilt with dterr.FromCode on the
// client, so errors.Is comparisons against the dterr sentinels survive the
// wire.
func (r respFrame) fail(e *dterr.Error) {
	buf := r.fb.Begin()
	store.PutUvarint(buf, r.id)
	buf.WriteByte(1)
	store.PutString(buf, string(e.Code))
	store.PutString(buf, e.Message)
}

// readResponse reads one response frame off r into storage of its own and
// checks that it answers request id.
func readResponse(r *bufio.Reader, id uint64) (*Response, error) {
	frame, err := store.ReadFrame(r, MaxFrameLen)
	if err != nil {
		return nil, err
	}
	resp, err := DecodeResponse(frame)
	if err != nil {
		return nil, err
	}
	if resp.ID != id {
		return nil, dterr.Newf(dterr.CodeInternal, "cluster: response id %d for request %d", resp.ID, id)
	}
	return resp, nil
}

// DecodeResponse parses a response frame. Body aliases data.
func DecodeResponse(data []byte) (*Response, error) {
	rd := bytes.NewReader(data)
	id, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, dterr.Wrapf(dterr.CodeInternal, err, "cluster: response id")
	}
	status, err := rd.ReadByte()
	if err != nil {
		return nil, dterr.Wrapf(dterr.CodeInternal, err, "cluster: response status")
	}
	if status > 1 {
		return nil, dterr.Newf(dterr.CodeInternal, "cluster: response status %d", status)
	}
	if status == 1 {
		code, err := store.GetString(rd)
		if err != nil {
			return nil, dterr.Wrapf(dterr.CodeInternal, err, "cluster: response error code")
		}
		msg, err := store.GetString(rd)
		if err != nil {
			return nil, dterr.Wrapf(dterr.CodeInternal, err, "cluster: response error message")
		}
		return &Response{ID: id, Err: dterr.FromCode(dterr.Code(code), msg)}, nil
	}
	gen, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, dterr.Wrapf(dterr.CodeInternal, err, "cluster: response gen")
	}
	return &Response{ID: id, Gen: gen, Body: data[len(data)-rd.Len():]}, nil
}

// ShardKey names one hosted shard on the wire.
func ShardKey(ns string, index int) string { return fmt.Sprintf("%s/%d", ns, index) }

// --- op payload codecs ------------------------------------------------

// Query frame flags.
const (
	queryExplain byte = 1 << iota
	queryGroup
	// queryRank says a rank section follows the group-by path: the rank's
	// path, a term count, then each term's text and its weight as a signed
	// varint. The reply is the same document list, best first; no score
	// crosses the wire, since the coordinator scores what it merges itself.
	queryRank
)

// EncodeQuery packs a query request body: a flags byte (queryExplain,
// queryGroup, queryRank), offset and limit as signed varints (a negative
// limit is store.NoLimit), the field list (a count, then the names; none is
// every field), the group-by path when queryGroup is set, the rank section
// when queryRank is set, then the filter document. An unranked query's
// body has no trace of the rank.
func EncodeQuery(q store.Query) ([]byte, error) {
	var buf bytes.Buffer
	var flags byte
	if q.Explain {
		flags |= queryExplain
	}
	if q.GroupBy != "" {
		flags |= queryGroup
	}
	if q.Rank != nil {
		flags |= queryRank
	}
	buf.WriteByte(flags)
	putVarint(&buf, int64(q.Offset))
	putVarint(&buf, int64(q.Limit))
	store.PutUvarint(&buf, uint64(len(q.Fields)))
	for _, name := range q.Fields {
		store.PutString(&buf, name)
	}
	if q.GroupBy != "" {
		store.PutString(&buf, q.GroupBy)
	}
	if q.Rank != nil {
		store.PutString(&buf, q.Rank.Path)
		store.PutUvarint(&buf, uint64(len(q.Rank.Terms)))
		for _, t := range q.Rank.Terms {
			store.PutString(&buf, t.Text)
			putVarint(&buf, int64(t.Weight))
		}
	}
	if err := store.PutFilter(&buf, q.Filter); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeQuery unpacks EncodeQuery. A negative offset and an empty group-by
// path are refused, and so is a rank without a path or a first term or
// with a weight beyond the platform's int; a limit beyond it is clamped to
// it.
func DecodeQuery(data []byte) (store.Query, error) {
	rd := bytes.NewReader(data)
	flags, err := rd.ReadByte()
	if err != nil {
		return store.Query{}, dterr.Wrapf(dterr.CodeInvalidArgument, err, "cluster: query flags")
	}
	if flags&^(queryExplain|queryGroup|queryRank) != 0 {
		return store.Query{}, dterr.Newf(dterr.CodeInvalidArgument, "cluster: unknown query flags %#x", flags)
	}
	offset, err := binary.ReadVarint(rd)
	if err != nil {
		return store.Query{}, dterr.Wrapf(dterr.CodeInvalidArgument, err, "cluster: query offset")
	}
	if offset < 0 {
		return store.Query{}, dterr.Newf(dterr.CodeInvalidArgument, "cluster: negative query offset %d", offset)
	}
	limit, err := binary.ReadVarint(rd)
	if err != nil {
		return store.Query{}, dterr.Wrapf(dterr.CodeInvalidArgument, err, "cluster: query limit")
	}
	nfields, err := binary.ReadUvarint(rd)
	if err != nil || nfields > uint64(rd.Len()) {
		return store.Query{}, dterr.Newf(dterr.CodeInvalidArgument, "cluster: query field count %d (%v)", nfields, err)
	}
	var fields []string
	for i := uint64(0); i < nfields; i++ {
		name, err := store.GetString(rd)
		if err != nil {
			return store.Query{}, dterr.Wrapf(dterr.CodeInvalidArgument, err, "cluster: query field %d", i)
		}
		fields = append(fields, name)
	}
	var groupBy string
	if flags&queryGroup != 0 {
		if groupBy, err = store.GetString(rd); err != nil || groupBy == "" {
			return store.Query{}, dterr.Newf(dterr.CodeInvalidArgument, "cluster: query group-by path %q (%v)", groupBy, err)
		}
	}
	var rank *store.Rank
	if flags&queryRank != 0 {
		if rank, err = getRank(rd); err != nil {
			return store.Query{}, err
		}
	}
	filter, err := store.ReadFilter(data[len(data)-rd.Len():])
	if err != nil {
		return store.Query{}, err
	}
	return store.Query{
		Filter:  filter,
		Offset:  int(min(offset, math.MaxInt)),
		Limit:   int(max(min(limit, math.MaxInt), store.NoLimit)),
		Explain: flags&queryExplain != 0,
		Fields:  fields,
		GroupBy: groupBy,
		Rank:    rank,
	}, nil
}

// getRank reads the rank section of a query request.
func getRank(rd *bytes.Reader) (*store.Rank, error) {
	path, err := store.GetString(rd)
	if err != nil || path == "" {
		return nil, dterr.Newf(dterr.CodeInvalidArgument, "cluster: query rank path %q (%v)", path, err)
	}
	n, err := binary.ReadUvarint(rd)
	if err != nil || n == 0 || n > uint64(rd.Len()) {
		return nil, dterr.Newf(dterr.CodeInvalidArgument, "cluster: query rank term count %d (%v)", n, err)
	}
	rank := &store.Rank{Path: path, Terms: make([]store.Term, n)}
	for i := range rank.Terms {
		text, err := store.GetString(rd)
		if err != nil || (i == 0 && text == "") {
			return nil, dterr.Newf(dterr.CodeInvalidArgument, "cluster: query rank term %d %q (%v)", i, text, err)
		}
		weight, err := binary.ReadVarint(rd)
		if err != nil || weight != int64(int(weight)) {
			return nil, dterr.Newf(dterr.CodeInvalidArgument, "cluster: query rank term %d weight %d (%v)", i, weight, err)
		}
		rank.Terms[i] = store.Term{Text: text, Weight: int(weight)}
	}
	return rank, nil
}

func putVarint(buf *bytes.Buffer, x int64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutVarint(tmp[:], x)])
}

// putResult appends the response body to q: the match total, then the plan
// (four strings) for an explain query, or otherwise the groups of a grouped
// query (a count, then each key and its count) and the window's documents,
// each cut down to q.Fields.
func putResult(buf *bytes.Buffer, res store.Result, q store.Query) {
	store.PutUvarint(buf, uint64(res.Total))
	if q.Explain {
		store.PutString(buf, res.Plan.AccessPath)
		store.PutString(buf, res.Plan.IndexName)
		store.PutString(buf, res.Plan.IndexKind)
		store.PutString(buf, res.Plan.Reason)
		return
	}
	if q.GroupBy != "" {
		store.PutUvarint(buf, uint64(len(res.Groups)))
		for _, g := range res.Groups {
			store.PutString(buf, g.Key)
			store.PutUvarint(buf, uint64(g.Count))
		}
	}
	putDocList(buf, res.Docs, q.Fields)
}

// DecodeResult unpacks the putResult body of a reply to q. The window's
// documents stay encoded, aliasing data, in Result.Encoded: the router
// builds only those it keeps.
func DecodeResult(data []byte, q store.Query) (store.Result, error) {
	rd := bytes.NewReader(data)
	total, err := binary.ReadUvarint(rd)
	if err != nil {
		return store.Result{}, dterr.Wrapf(dterr.CodeInternal, err, "cluster: query result total")
	}
	if total > math.MaxInt64 {
		return store.Result{}, dterr.Newf(dterr.CodeInternal, "cluster: query result total %d overflows", total)
	}
	res := store.Result{Total: int64(total)}
	if q.Explain {
		for _, field := range []*string{&res.Plan.AccessPath, &res.Plan.IndexName, &res.Plan.IndexKind, &res.Plan.Reason} {
			if *field, err = store.GetString(rd); err != nil {
				return store.Result{}, dterr.Wrapf(dterr.CodeInternal, err, "cluster: query plan")
			}
		}
		return res, nil
	}
	if q.GroupBy != "" {
		if res.Groups, err = getGroups(rd); err != nil {
			return store.Result{}, err
		}
	}
	if res.Encoded, err = store.ReadDocList(data[len(data)-rd.Len():]); err != nil {
		return store.Result{}, err
	}
	return res, nil
}

// getGroups reads the group section of a query result.
func getGroups(rd *bytes.Reader) ([]store.Group, error) {
	n, err := binary.ReadUvarint(rd)
	if err != nil || n > uint64(rd.Len()) {
		return nil, dterr.Newf(dterr.CodeInternal, "cluster: group count %d (%v)", n, err)
	}
	groups := make([]store.Group, n)
	for i := range groups {
		key, err := store.GetString(rd)
		if err != nil {
			return nil, dterr.Wrapf(dterr.CodeInternal, err, "cluster: group %d key", i)
		}
		count, err := binary.ReadUvarint(rd)
		if err != nil || count > math.MaxInt64 {
			return nil, dterr.Newf(dterr.CodeInternal, "cluster: group %d count %d (%v)", i, count, err)
		}
		groups[i] = store.Group{Key: key, Count: int64(count)}
	}
	return groups, nil
}

// putDocList appends a document list — the tail of a query response body
// and the whole of an insert request body: the count and each document cut
// down to fields (none is every field), length-prefixed. Every document is
// encoded through one scratch buffer, straight from the stored document,
// and buf grows once, by the footprint estimate of what is written
// (measured cheaper than doubling).
func putDocList(buf *bytes.Buffer, docs []*store.Doc, fields []string) {
	store.PutUvarint(buf, uint64(len(docs)))
	var size int64
	for _, d := range docs {
		size += d.SizeBytesOf(fields)
	}
	buf.Grow(int(size))
	var one bytes.Buffer
	for _, d := range docs {
		one.Reset()
		store.PutDocFields(&one, d, fields)
		store.PutBytes(buf, one.Bytes())
	}
}

// EncodeIDs packs an insert response body: a count, then each id.
func EncodeIDs(ids []int64) []byte {
	var buf bytes.Buffer
	buf.Grow((len(ids) + 1) * binary.MaxVarintLen32)
	store.PutUvarint(&buf, uint64(len(ids)))
	for _, id := range ids {
		store.PutUvarint(&buf, uint64(id))
	}
	return buf.Bytes()
}

// DecodeIDs unpacks EncodeIDs.
func DecodeIDs(data []byte) ([]int64, error) {
	rd := bytes.NewReader(data)
	n, err := binary.ReadUvarint(rd)
	if err != nil || n > uint64(rd.Len()) {
		return nil, dterr.Newf(dterr.CodeInternal, "cluster: id list count %d (%v)", n, err)
	}
	ids := make([]int64, n)
	for i := range ids {
		id, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, dterr.Wrapf(dterr.CodeInternal, err, "cluster: id %d", i)
		}
		ids[i] = int64(id)
	}
	return ids, nil
}

// EncodeStats packs shard stats as a document through the store codec.
func EncodeStats(st store.Stats) []byte {
	d := store.NewDoc(
		store.F("ns", store.Str(st.NS)),
		store.F("count", store.Num(st.Count)),
		store.F("numExtents", store.Num(int64(st.NumExtents))),
		store.F("nindexes", store.Num(int64(st.NIndexes))),
		store.F("lastExtentSize", store.Num(st.LastExtentSize)),
		store.F("totalIndexSize", store.Num(st.TotalIndexSize)),
		store.F("dataSize", store.Num(st.DataSize)),
		store.F("avgObjSize", store.Num(st.AvgObjSize)))
	return store.EncodeDoc(d)
}

// DecodeStats unpacks EncodeStats.
func DecodeStats(data []byte) (store.Stats, error) {
	d, err := store.AdoptDoc(data)
	if err != nil {
		return store.Stats{}, err
	}
	num := func(path string) int64 {
		v, _ := d.Path(path)
		n, _ := v.Scalar().AsInt()
		return n
	}
	return store.Stats{
		NS:             d.PathString("ns"),
		Count:          num("count"),
		NumExtents:     int(num("numExtents")),
		NIndexes:       int(num("nindexes")),
		LastExtentSize: num("lastExtentSize"),
		TotalIndexSize: num("totalIndexSize"),
		DataSize:       num("dataSize"),
		AvgObjSize:     num("avgObjSize"),
	}, nil
}
