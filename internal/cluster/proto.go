// Package cluster lets the sharded store span processes: a length-prefixed
// binary wire protocol over TCP reusing the store codec and CRC framing, a
// RemoteShard client implementing store.ShardBackend, a coordinator that
// assembles routers over remote shards from a static cluster.json
// membership table, and primary→follower replication of shard mutations
// for replicated snapshot reads with a read-your-writes generation check.
// An in-process loopback transport exercises the full codec without
// sockets, which is how most of the test suite runs.
//
// A filtered read is one frame each way, OpQuery: the request carries the
// filter with an offset and a limit, the response the window's documents
// and the shard's exact match total — or only the total (limit 0), or the
// shard's plan for the filter (explain). The router asks every shard for
// its first offset+limit matches, so a page view moves pages, not shards.
// A query may also list the top-level fields its caller reads; the node
// then encodes only those, straight from the stored documents, so a page
// moves fields, not documents. And it may name a group-by path; the
// response then carries each key at that path with its count, so a ranking
// moves keys, not matches.
//
// An insert is a frame per shard, not per document: OpInsert's body is a
// document list in the codec query responses use, cut into chunks of about
// InsertChunkBytes, and a node decodes the whole list before it stores the
// first document.
package cluster

import (
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
	// OpInsert stores a document list (EncodeDocList) in order and answers
	// with the ids (EncodeIDs).
	OpInsert
	OpUpdate
	OpDelete
	// OpQuery is the one filtered read: a window of the matching documents
	// plus their exact total and group counts, the total alone (limit 0), or
	// the shard's plan for the filter (explain). See EncodeQuery and
	// EncodeResult.
	OpQuery
	OpStats
	OpCreateIndex
	OpCreateTextIndex
	OpPull
	// OpInfo probes a shard without the read fence: the response carries
	// the shard's generation and document count, letting a coordinator
	// decide whether nodes are warm (recovered from their local
	// WAL/checkpoint) before re-running batch ingest.
	OpInfo
	// OpCheckpoint asks the hosting node to persist the shard to its local
	// data directory (the shard's snapshot, WAL truncated). Unavailable on
	// nodes running without -data-dir.
	OpCheckpoint
)

// MaxFrameLen bounds a wire frame so a corrupt or hostile length header
// cannot make the reader allocate an arbitrary buffer. The largest frame is
// an OpPull resync, which ships a follower the whole shard; 64 MB is ~30x
// the scaled-down deployment's whole corpus.
const MaxFrameLen uint32 = 64 << 20

// InsertChunkBytes is the footprint (Doc.SizeBytes, which overstates the
// encoding) at which RemoteShard.Insert closes an OpInsert frame: a chunk
// takes documents until it reaches this, so a frame runs at most one
// document over — far under MaxFrameLen — and a load of B bytes to one shard
// is at most B/InsertChunkBytes + 1 calls.
const InsertChunkBytes = 1 << 20

// Replication event kinds, carried as the store.EventLog kind byte when a
// primary ships its mutation log to a follower. Payload: 8-byte little-
// endian id, then the encoded document (insert/update only).
const (
	EvInsert byte = 1
	EvUpdate byte = 2
	EvDelete byte = 3
	// Index creation replicates too, so a follower serves reads through
	// the same access paths (and thus in the same result order) as its
	// primary. Payloads reuse the create-index request encodings.
	EvCreateIndex     byte = 4
	EvCreateTextIndex byte = 5
)

// Pull response flags: the first body byte of an OpPull response says
// whether the rest is an incremental event log or a full shard snapshot
// (the resync path when the primary has trimmed past the follower's
// position). A snapshot body is the flag, then the primary collection's
// image as Collection.WriteSnapshot writes it — the same image a
// checkpoint holds, carrying the extent size and index layout — which the
// follower loads with store.ReadSnapshot.
const (
	PullEvents   byte = 0
	PullSnapshot byte = 1
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

// Encode serializes the request for framing.
func (r *Request) Encode() []byte {
	var buf bytes.Buffer
	buf.Grow(len(r.Shard) + len(r.Body) + 3*binary.MaxVarintLen64)
	store.PutUvarint(&buf, r.ID)
	buf.WriteByte(r.Op)
	store.PutString(&buf, r.Shard)
	store.PutUvarint(&buf, r.MinGen)
	buf.Write(r.Body)
	return buf.Bytes()
}

// DecodeRequest parses a request frame. Body aliases data.
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

// Encode serializes the response for framing. Errors travel as
// (code, message) and are rebuilt with dterr.FromCode on the client, so
// errors.Is comparisons against the dterr sentinels survive the wire.
func (r *Response) Encode() []byte {
	var buf bytes.Buffer
	store.PutUvarint(&buf, r.ID)
	if r.Err != nil {
		buf.WriteByte(1)
		store.PutString(&buf, string(r.Err.Code))
		store.PutString(&buf, r.Err.Message)
		return buf.Bytes()
	}
	buf.Grow(len(r.Body) + 2*binary.MaxVarintLen64)
	buf.WriteByte(0)
	store.PutUvarint(&buf, r.Gen)
	buf.Write(r.Body)
	return buf.Bytes()
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

// --- filter codec -----------------------------------------------------
//
// Filters cross the wire as documents through the store codec, so the
// wire protocol adds no second serialization format: a Cond becomes
// {t: "cond", op, path, value, set}, combinators nest recursively.

// DecodeFilter decodes a filter document as filterDoc builds it.
func DecodeFilter(data []byte) (store.Filter, error) {
	d, err := store.DecodeDoc(data)
	if err != nil {
		return nil, dterr.Wrap(dterr.CodeInvalidArgument, err)
	}
	return docFilter(d)
}

func filterDoc(f store.Filter) (*store.Doc, error) {
	switch v := f.(type) {
	case nil:
		return store.NewDoc().Set("t", store.Str("nil")), nil
	case store.Cond:
		d := store.NewDoc().
			Set("t", store.Str("cond")).
			Set("op", store.Num(int64(v.Op))).
			Set("path", store.Str(v.Path)).
			Set("value", store.Scalar(v.Value))
		if len(v.Set) > 0 {
			set := make([]store.DocValue, len(v.Set))
			for i, s := range v.Set {
				set[i] = store.Scalar(s)
			}
			d.Set("set", store.List(set...))
		}
		return d, nil
	case store.And:
		return combinatorDoc("and", v)
	case store.Or:
		return combinatorDoc("or", v)
	case store.Not:
		kid, err := filterDoc(v.Inner)
		if err != nil {
			return nil, err
		}
		return store.NewDoc().Set("t", store.Str("not")).Set("kid", store.Nested(kid)), nil
	case store.All:
		return store.NewDoc().Set("t", store.Str("all")), nil
	default:
		return nil, dterr.Newf(dterr.CodeInvalidArgument, "cluster: unsupported filter type %T", f)
	}
}

func combinatorDoc(t string, kids []store.Filter) (*store.Doc, error) {
	vs := make([]store.DocValue, len(kids))
	for i, kid := range kids {
		kd, err := filterDoc(kid)
		if err != nil {
			return nil, err
		}
		vs[i] = store.Nested(kd)
	}
	return store.NewDoc().Set("t", store.Str(t)).Set("kids", store.List(vs...)), nil
}

func docFilter(d *store.Doc) (store.Filter, error) {
	switch t := d.PathString("t"); t {
	case "nil":
		return nil, nil
	case "all":
		return store.All{}, nil
	case "cond":
		opv, _ := d.Path("op")
		op, _ := opv.Scalar().AsInt()
		c := store.Cond{Path: d.PathString("path"), Op: store.Op(op)}
		if v, ok := d.Path("value"); ok {
			c.Value = v.Scalar()
		}
		if set, ok := d.Path("set"); ok && set.IsList() {
			for _, e := range set.List() {
				c.Set = append(c.Set, e.Scalar())
			}
		}
		return c, nil
	case "and", "or":
		kidsV, _ := d.Path("kids")
		var kids []store.Filter
		for _, e := range kidsV.List() {
			if e.Doc() == nil {
				return nil, dterr.New(dterr.CodeInvalidArgument, "cluster: combinator child is not a document")
			}
			kid, err := docFilter(e.Doc())
			if err != nil {
				return nil, err
			}
			kids = append(kids, kid)
		}
		if t == "and" {
			return store.And(kids), nil
		}
		return store.Or(kids), nil
	case "not":
		kidV, ok := d.Path("kid")
		if !ok || kidV.Doc() == nil {
			return nil, dterr.New(dterr.CodeInvalidArgument, "cluster: not-filter missing child")
		}
		kid, err := docFilter(kidV.Doc())
		if err != nil {
			return nil, err
		}
		return store.Not{Inner: kid}, nil
	default:
		return nil, dterr.Newf(dterr.CodeInvalidArgument, "cluster: unknown filter tag %q", t)
	}
}

// --- op payload codecs ------------------------------------------------

// EncodeIDDoc packs (id, doc) — the update request body and the
// replication event payload.
func EncodeIDDoc(id int64, d *store.Doc) []byte {
	var buf bytes.Buffer
	var idb [8]byte
	binary.LittleEndian.PutUint64(idb[:], uint64(id))
	buf.Write(idb[:])
	if d != nil {
		store.PutDoc(&buf, d)
	}
	return buf.Bytes()
}

// DecodeIDDoc unpacks EncodeIDDoc; doc is nil when absent (deletes).
func DecodeIDDoc(data []byte) (int64, *store.Doc, error) {
	if len(data) < 8 {
		return 0, nil, dterr.Newf(dterr.CodeInternal, "cluster: id+doc payload too short (%d bytes)", len(data))
	}
	id := int64(binary.LittleEndian.Uint64(data[:8]))
	if len(data) == 8 {
		return id, nil, nil
	}
	d, err := store.DecodeDoc(data[8:])
	if err != nil {
		return 0, nil, err
	}
	return id, d, nil
}

// Query frame flags.
const (
	queryExplain byte = 1 << iota
	queryGroup
)

// EncodeQuery packs a query request body: a flags byte (queryExplain,
// queryGroup), offset and limit as signed varints (a negative limit is
// store.NoLimit), the field list (a count, then the names; none is every
// field), the group-by path when queryGroup is set, then the filter
// document.
func EncodeQuery(q store.Query) ([]byte, error) {
	fd, err := filterDoc(q.Filter)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	var flags byte
	if q.Explain {
		flags |= queryExplain
	}
	if q.GroupBy != "" {
		flags |= queryGroup
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
	store.PutDoc(&buf, fd)
	return buf.Bytes(), nil
}

// DecodeQuery unpacks EncodeQuery. A negative offset and an empty group-by
// path are refused; a limit beyond the platform's int is clamped to it.
func DecodeQuery(data []byte) (store.Query, error) {
	rd := bytes.NewReader(data)
	flags, err := rd.ReadByte()
	if err != nil {
		return store.Query{}, dterr.Wrapf(dterr.CodeInvalidArgument, err, "cluster: query flags")
	}
	if flags&^(queryExplain|queryGroup) != 0 {
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
	filter, err := DecodeFilter(data[len(data)-rd.Len():])
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
	}, nil
}

func putVarint(buf *bytes.Buffer, x int64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutVarint(tmp[:], x)])
}

// EncodeResult packs the response body to q: the match total, then the plan
// (four strings) for an explain query, or otherwise the groups of a grouped
// query (a count, then each key and its count) and the window's documents,
// each cut down to q.Fields.
func EncodeResult(res store.Result, q store.Query) []byte {
	var buf bytes.Buffer
	store.PutUvarint(&buf, uint64(res.Total))
	if q.Explain {
		store.PutString(&buf, res.Plan.AccessPath)
		store.PutString(&buf, res.Plan.IndexName)
		store.PutString(&buf, res.Plan.IndexKind)
		store.PutString(&buf, res.Plan.Reason)
		return buf.Bytes()
	}
	if q.GroupBy != "" {
		store.PutUvarint(&buf, uint64(len(res.Groups)))
		for _, g := range res.Groups {
			store.PutString(&buf, g.Key)
			store.PutUvarint(&buf, uint64(g.Count))
		}
	}
	putDocList(&buf, res.Docs, q.Fields)
	return buf.Bytes()
}

// DecodeResult unpacks the EncodeResult of a reply to q.
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
	res.Docs, err = DecodeDocList(data[len(data)-rd.Len():])
	return res, err
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

// EncodeDocList packs a document list — the tail of a query response body
// and the whole of an insert request body.
func EncodeDocList(docs []*store.Doc) []byte {
	var buf bytes.Buffer
	putDocList(&buf, docs, nil)
	return buf.Bytes()
}

// putDocList appends the count and each document cut down to fields (none
// is every field), length-prefixed. Every document is encoded through one
// scratch buffer, straight from the stored document, and buf grows once, by
// the footprint estimate of what is written (measured cheaper than
// doubling).
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

// DecodeDocList unpacks EncodeDocList through one reader. Nothing past the
// list may remain, and no document may run over or short of its length.
func DecodeDocList(data []byte) ([]*store.Doc, error) {
	rd := bytes.NewReader(data)
	n, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, dterr.Wrapf(dterr.CodeInternal, err, "cluster: doc list count")
	}
	if n > uint64(rd.Len()) {
		return nil, dterr.Newf(dterr.CodeInternal, "cluster: doc list count %d exceeds remaining bytes", n)
	}
	docs := make([]*store.Doc, 0, n)
	var prev *store.Doc
	for i := uint64(0); i < n; i++ {
		size, err := binary.ReadUvarint(rd)
		if err != nil || size > uint64(rd.Len()) {
			return nil, dterr.Newf(dterr.CodeInternal, "cluster: doc %d length", i)
		}
		end := rd.Len() - int(size)
		d, err := store.GetDoc(rd, prev)
		if err != nil {
			return nil, dterr.Wrapf(dterr.CodeInternal, err, "cluster: doc %d", i)
		}
		if rd.Len() != end {
			return nil, dterr.Newf(dterr.CodeInternal, "cluster: doc %d is not the %d bytes its length says", i, size)
		}
		docs = append(docs, d)
		prev = d
	}
	if rd.Len() != 0 {
		return nil, dterr.Newf(dterr.CodeInternal, "cluster: %d bytes after the doc list", rd.Len())
	}
	return docs, nil
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
	d := store.NewDoc().
		Set("ns", store.Str(st.NS)).
		Set("count", store.Num(st.Count)).
		Set("numExtents", store.Num(int64(st.NumExtents))).
		Set("nindexes", store.Num(int64(st.NIndexes))).
		Set("lastExtentSize", store.Num(st.LastExtentSize)).
		Set("totalIndexSize", store.Num(st.TotalIndexSize)).
		Set("dataSize", store.Num(st.DataSize)).
		Set("avgObjSize", store.Num(st.AvgObjSize))
	return store.EncodeDoc(d)
}

// DecodeStats unpacks EncodeStats.
func DecodeStats(data []byte) (store.Stats, error) {
	d, err := store.DecodeDoc(data)
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

// EncodeCreateIndex packs a create-index request body.
func EncodeCreateIndex(name, path string, kind store.IndexKind) []byte {
	var buf bytes.Buffer
	store.PutString(&buf, name)
	store.PutString(&buf, path)
	store.PutUvarint(&buf, uint64(kind))
	return buf.Bytes()
}

// DecodeCreateIndex unpacks EncodeCreateIndex.
func DecodeCreateIndex(data []byte) (name, path string, kind store.IndexKind, err error) {
	rd := bytes.NewReader(data)
	if name, err = store.GetString(rd); err != nil {
		return "", "", 0, dterr.Wrapf(dterr.CodeInternal, err, "cluster: index name")
	}
	if path, err = store.GetString(rd); err != nil {
		return "", "", 0, dterr.Wrapf(dterr.CodeInternal, err, "cluster: index path")
	}
	k, err := binary.ReadUvarint(rd)
	if err != nil {
		return "", "", 0, dterr.Wrapf(dterr.CodeInternal, err, "cluster: index kind")
	}
	return name, path, store.IndexKind(k), nil
}

// ShardInfo is the decoded OpInfo response body.
type ShardInfo struct {
	// Gen is the shard's mutation generation (also in Response.Gen).
	Gen uint64
	// Count is the live document count.
	Count int64
}

// EncodeShardInfo packs an OpInfo response body.
func EncodeShardInfo(info ShardInfo) []byte {
	var buf bytes.Buffer
	store.PutUvarint(&buf, info.Gen)
	store.PutUvarint(&buf, uint64(info.Count))
	return buf.Bytes()
}

// DecodeShardInfo unpacks EncodeShardInfo.
func DecodeShardInfo(data []byte) (ShardInfo, error) {
	rd := bytes.NewReader(data)
	gen, err := binary.ReadUvarint(rd)
	if err != nil {
		return ShardInfo{}, dterr.Wrapf(dterr.CodeInternal, err, "cluster: info gen")
	}
	count, err := binary.ReadUvarint(rd)
	if err != nil {
		return ShardInfo{}, dterr.Wrapf(dterr.CodeInternal, err, "cluster: info count")
	}
	return ShardInfo{Gen: gen, Count: int64(count)}, nil
}
