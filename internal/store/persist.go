package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"slices"
	"sort"
)

// Persistence formats: a collection is checkpointed to a snapshot stream,
// and mutations between checkpoints go to an event log (see Log for the
// directory protocol that ties the two together). Frames are CRC-protected
// so a torn tail write is detected and replay stops cleanly at the last
// good frame.

const (
	snapshotMagic = "DTSNAP2\n"
	eventMagic    = "DTEVTL1\n"
)

// A snapshot is the one image of a collection: what a checkpoint writes,
// what a restore and a dtnode recovery read, and what a primary ships to a
// follower, above the highest id the follower holds.
//
//	magic   "DTSNAP2\n"
//	header  one frame: namespace, extent size, bytes taken from extents,
//	        next id, document count, then the index layout — each secondary
//	        index's spec (PutIndexSpec: name, path, kind), then each text
//	        index's path
//	docs    one frame per document, in ascending id order: its 8-byte id,
//	        then its encoding
//
// Indexes travel as layout, not contents: the reader rebuilds them over the
// documents it loads. An image above an id has the whole header and only
// the documents above that id.

// WriteSnapshot serializes the collection's image above id above; a
// checkpoint passes 0. Every frame — header, then each document — is
// assembled in one reused buffer, so a checkpoint allocates the same few
// buffers whatever the collection holds.
func (c *Collection) WriteSnapshot(w io.Writer, above int64) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	first := sort.Search(len(c.ids), func(i int) bool { return c.ids[i] > above })
	var frame bytes.Buffer
	var reserved [4 + 8]byte // a frame's length, filled in by sealFrame, and a document's id
	frame.Write(reserved[:4])
	c.putHeaderLocked(&frame, len(c.docs)-first)
	sealFrame(&frame, 0)
	if _, err := bw.Write(frame.Bytes()); err != nil {
		return err
	}
	for i, d := range c.docs[first:] {
		frame.Reset()
		binary.LittleEndian.PutUint64(reserved[4:], uint64(c.ids[first+i]))
		frame.Write(reserved[:])
		PutDoc(&frame, d)
		sealFrame(&frame, 0)
		if _, err := bw.Write(frame.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// putHeaderLocked appends the payload of the header of an image that
// carries count documents. Must hold c.mu.
func (c *Collection) putHeaderLocked(buf *bytes.Buffer, count int) {
	PutString(buf, c.ns)
	PutUvarint(buf, uint64(c.extentSize))
	PutUvarint(buf, uint64(c.allocated))
	PutUvarint(buf, uint64(c.nextID))
	PutUvarint(buf, uint64(count))
	names := slices.Sorted(maps.Keys(c.indexes))
	PutUvarint(buf, uint64(len(names)))
	for _, name := range names {
		ix := c.indexes[name]
		PutIndexSpec(buf, IndexSpec{Name: ix.Name, Path: ix.Path, Kind: ix.Kind})
	}
	paths := slices.Sorted(maps.Keys(c.text))
	PutUvarint(buf, uint64(len(paths)))
	for _, path := range paths {
		PutString(buf, path)
	}
}

// ReadSnapshot loads a snapshot into a fresh collection with the extent
// size, extent usage, id space and indexes of the one that wrote it. It
// reads bytes from disk and from the network alike, so it trusts no length
// or count before the bytes behind it have arrived, and it refuses a
// malformed layout, an unknown index kind, a document id outside the
// header's id space or not above the one before it, and anything after the
// last document.
func ReadSnapshot(r io.Reader) (*Collection, error) {
	c, _, err := readImage(r, 0, func(c *Collection, id int64, doc *Doc) { c.addLocked(id, doc) })
	return c, err
}

// Image is a snapshot image decoded whole, as a follower decodes a pull:
// the writer's extent size and index layout, and the documents.
type Image struct {
	ExtentSize int64
	Layout     []IndexSpec
	Docs       []ImageDoc
}

// ImageDoc is one document of an Image.
type ImageDoc struct {
	ID  int64
	Doc *Doc
}

// ReadImage decodes a snapshot image, refusing what ReadSnapshot refuses
// and a document at or below id above.
func ReadImage(r io.Reader, above int64) (*Image, error) {
	img := &Image{}
	c, layout, err := readImage(r, above, func(_ *Collection, id int64, doc *Doc) {
		img.Docs = append(img.Docs, ImageDoc{ID: id, Doc: doc})
	})
	if err != nil {
		return nil, err
	}
	img.ExtentSize, img.Layout = c.extentSize, layout
	return img, nil
}

// readImage reads a snapshot image: the empty collection its header
// describes, with the header's extent usage (see Collection.allocated) and
// index layout, and each document above id above, handed to each. Every
// document frame is read into one reused buffer, out of which the document
// is adopted.
func readImage(r io.Reader, above int64, each func(c *Collection, id int64, doc *Doc)) (*Collection, []IndexSpec, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, nil, fmt.Errorf("store: reading snapshot magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, nil, fmt.Errorf("store: bad snapshot magic %q", magic)
	}
	hdr, err := readFrame(br)
	if err != nil {
		return nil, nil, fmt.Errorf("store: reading snapshot header: %w", err)
	}
	c, layout, allocated, count, err := decodeSnapshotHeader(hdr)
	if err != nil {
		return nil, nil, fmt.Errorf("store: snapshot header: %w", err)
	}
	last := max(above, 0)
	var buf []byte
	for i := uint64(0); i < count; i++ {
		frame, err := readFrameMax(br, 0, buf)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, nil, fmt.Errorf("store: reading doc %d: %w", i, err)
		}
		id, doc, err := DecodeIDDoc(frame)
		if err != nil {
			return nil, nil, fmt.Errorf("store: decoding doc %d: %w", i, err)
		}
		if id <= last || id >= c.nextID {
			return nil, nil, fmt.Errorf("store: doc %d: id %d is not in (%d, %d)", i, id, last, c.nextID)
		}
		each(c, id, doc)
		last, buf = id, frame[:0]
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, nil, fmt.Errorf("store: snapshot continues past its %d documents (%v)", count, err)
	}
	c.allocated = allocated
	return c, layout, nil
}

// decodeSnapshotHeader builds the empty collection a snapshot header
// describes, its indexes created and empty, and returns it with its layout,
// the bytes its extents held and the count of documents to follow.
func decodeSnapshotHeader(data []byte) (c *Collection, layout []IndexSpec, allocated int64, count uint64, err error) {
	rd := bytes.NewReader(data)
	ns, err := GetString(rd)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("namespace: %w", err)
	}
	var extentSize, used, nextID uint64
	for _, field := range []*uint64{&extentSize, &used, &nextID, &count} {
		if *field, err = binary.ReadUvarint(rd); err != nil {
			return nil, nil, 0, 0, err
		}
	}
	if extentSize == 0 || extentSize > math.MaxInt64 || used > math.MaxInt64 || nextID == 0 || nextID > math.MaxInt64 {
		return nil, nil, 0, 0, fmt.Errorf("extent size %d, allocated %d, next id %d out of range", extentSize, used, nextID)
	}
	c = NewCollection(ns, int64(extentSize))
	c.nextID = int64(nextID)
	n, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("index count: %w", err)
	}
	for i := uint64(0); i < n; i++ {
		ix, err := GetIndexSpec(rd)
		switch {
		case err != nil:
			return nil, nil, 0, 0, fmt.Errorf("index %d: %w", i, err)
		case ix.Kind == TextIndex:
			return nil, nil, 0, 0, fmt.Errorf("index %d: a text index among the secondary ones", i)
		case c.indexes[ix.Name] != nil:
			return nil, nil, 0, 0, fmt.Errorf("index %q listed twice", ix.Name)
		}
		c.indexes[ix.Name] = newIndex(ix.Name, ix.Path, ix.Kind)
		layout = append(layout, ix)
	}
	if n, err = binary.ReadUvarint(rd); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("text index count: %w", err)
	}
	for i := uint64(0); i < n; i++ {
		path, err := GetString(rd)
		if err != nil {
			return nil, nil, 0, 0, fmt.Errorf("text index %d: %w", i, err)
		}
		if _, dup := c.text[path]; dup {
			return nil, nil, 0, 0, fmt.Errorf("text index %q listed twice", path)
		}
		c.text[path] = newTextIndex(path)
		layout = append(layout, IndexSpec{Path: path, Kind: TextIndex})
	}
	if rd.Len() != 0 {
		return nil, nil, 0, 0, fmt.Errorf("%d bytes after the index layout", rd.Len())
	}
	return c, layout, int64(used), count, nil
}

// PutIndexSpec appends ix's encoding: its name, path and kind, the bytes a
// snapshot header holds for each secondary index. A create-index request
// and a shard WAL's index event carry the same bytes, a text index's with
// an empty name.
func PutIndexSpec(buf *bytes.Buffer, ix IndexSpec) {
	PutString(buf, ix.Name)
	PutString(buf, ix.Path)
	PutUvarint(buf, uint64(ix.Kind))
}

// GetIndexSpec reads what PutIndexSpec wrote, refusing an unknown kind and
// a text index with a name.
func GetIndexSpec(r *bytes.Reader) (IndexSpec, error) {
	name, err1 := GetString(r)
	path, err2 := GetString(r)
	kind, err3 := binary.ReadUvarint(r)
	if err := errors.Join(err1, err2, err3); err != nil {
		return IndexSpec{}, err
	}
	switch {
	case kind > uint64(TextIndex):
		return IndexSpec{}, fmt.Errorf("index %q: unknown kind %d", name, kind)
	case kind == uint64(TextIndex) && name != "":
		return IndexSpec{}, fmt.Errorf("text index %q over %q: a text index has no name", name, path)
	}
	return IndexSpec{Name: name, Path: path, Kind: IndexKind(kind)}, nil
}

// EncodeIDDoc is a snapshot document frame's payload: id's 8 bytes, then
// d's encoding. A shard WAL's insert event carries the same bytes.
func EncodeIDDoc(id int64, d *Doc) []byte {
	buf := bytes.NewBuffer(binary.LittleEndian.AppendUint64(nil, uint64(id)))
	PutDoc(buf, d)
	return buf.Bytes()
}

// DecodeIDDoc reads what EncodeIDDoc wrote, adopting the document
// (AdoptDoc). The id alone holds no document and is refused.
func DecodeIDDoc(data []byte) (int64, *Doc, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("store: %d bytes hold no id", len(data))
	}
	d, err := AdoptDoc(data[8:])
	return int64(binary.LittleEndian.Uint64(data)), d, err
}

// ApplyReplay stores a document under a specific id — the operation a
// replication follower and a shard's WAL recovery apply for an insert
// event, preserving the primary's id assignment so reads against either
// replica return the same documents. The id must be above every id held,
// as the primary handed it out: any other, a held one included, is
// refused, which keeps the collection in id order and append-only.
func (c *Collection) ApplyReplay(id int64, doc *Doc) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.ids); id <= 0 || n > 0 && id <= c.ids[n-1] {
		return fmt.Errorf("store: replayed id %d is not positive and above every id held", id)
	}
	c.addLocked(id, doc)
	c.nextID = max(c.nextID, id+1)
	return nil
}

// readLogMagic consumes the event-log header. A zero-byte stream is an
// empty log (ok=false, clean); a short or mismatching header is a torn or
// corrupt one (ok=false, truncated=true) — the log then holds no events,
// exactly like a tail torn at the first frame.
func readLogMagic(br *bufio.Reader) (ok, truncated bool) {
	magic := make([]byte, len(eventMagic))
	n, _ := io.ReadFull(br, magic)
	ok = string(magic) == eventMagic
	return ok, n > 0 && !ok
}

// EventLog is an append-only log of application-defined events in CRC
// frames, so torn tails are detected. Each event carries a monotonically
// increasing sequence number, letting a recovery replay skip events already
// covered by a checkpoint. It is the format of Log's write-ahead file, a
// dtnode shard's among them.
type EventLog struct {
	w       *bufio.Writer
	closer  io.Closer
	nextSeq uint64
	// head holds a frame's sequence number and kind, the bytes Append
	// writes before the payload.
	head [binary.MaxVarintLen64 + 1]byte
}

// NewEventLog starts a fresh event log on w, writing the header immediately.
// Sequence numbers start at 1.
func NewEventLog(w io.Writer) (*EventLog, error) { return NewEventLogAt(w, 1) }

// NewEventLogAt starts a fresh event log whose sequence numbers continue
// from nextSeq — used when truncating a log after a checkpoint so sequence
// numbers stay monotonic across the truncation.
func NewEventLogAt(w io.Writer, nextSeq uint64) (*EventLog, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(eventMagic); err != nil {
		return nil, err
	}
	if nextSeq < 1 {
		nextSeq = 1
	}
	l := &EventLog{w: bw, nextSeq: nextSeq}
	if c, ok := w.(io.Closer); ok {
		l.closer = c
	}
	return l, nil
}

// NextSeq returns the sequence number the next Append will use.
func (l *EventLog) NextSeq() uint64 { return l.nextSeq }

// Append writes one event frame (seq, kind, payload) and returns its
// sequence number. The event is durable only after Flush. The frame's head
// is seq and kind; WriteFrameParts writes the payload where it lies.
func (l *EventLog) Append(kind byte, payload []byte) (uint64, error) {
	seq := l.nextSeq
	head := append(binary.AppendUvarint(l.head[:0], seq), kind)
	if err := WriteFrameParts(l.w, head, payload); err != nil {
		return 0, err
	}
	l.nextSeq++
	return seq, nil
}

// Flush forces buffered frames to the underlying writer.
func (l *EventLog) Flush() error { return l.w.Flush() }

// Close flushes and closes the underlying writer when it is closable.
func (l *EventLog) Close() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if l.closer != nil {
		return l.closer.Close()
	}
	return nil
}

// EventReplayStats summarizes an event-log replay.
type EventReplayStats struct {
	// Applied counts events delivered to fn; Skipped counts events at or
	// below afterSeq (already covered by a checkpoint).
	Applied, Skipped int
	// LastSeq is the highest sequence number seen, applied or not.
	LastSeq uint64
	// Truncated is true when the log ended mid-frame (torn write); events
	// before the tear were still delivered.
	Truncated bool
}

// ReplayEventLog streams events from r, invoking fn for every event with
// seq > afterSeq. A corrupt or torn tail stops replay cleanly (Truncated)
// rather than failing recovery; an error from fn aborts the replay.
func ReplayEventLog(r io.Reader, afterSeq uint64, fn func(seq uint64, kind byte, payload []byte) error) (EventReplayStats, error) {
	var stats EventReplayStats
	br := bufio.NewReader(r)
	ok, truncated := readLogMagic(br)
	if !ok {
		stats.Truncated = truncated
		return stats, nil
	}
	for {
		frame, err := readFrame(br)
		if err == io.EOF {
			return stats, nil
		}
		if err != nil {
			stats.Truncated = true
			return stats, nil
		}
		seq, n := binary.Uvarint(frame)
		if n <= 0 || n >= len(frame) {
			stats.Truncated = true
			return stats, nil
		}
		if seq > stats.LastSeq {
			stats.LastSeq = seq
		}
		if seq <= afterSeq {
			stats.Skipped++
			continue
		}
		if err := fn(seq, frame[n], frame[n+1:]); err != nil {
			return stats, err
		}
		stats.Applied++
	}
}

// WriteFrame writes one CRC-protected frame (len(4) payload crc32(4)) — the
// framing shared by snapshots, event logs, checkpoint metas, and the
// cluster wire protocol — from a whole payload: the frame the in-place
// writers, FrameBuf and WriteFrameParts, must equal.
//
//lint:dtlint-allow deadcheck TestFrameWritersMatchWriteFrame and the cluster frame tests: reference
func WriteFrame(w io.Writer, payload []byte) error { return writeFrame(w, payload) }

// WriteFrameParts writes the frame WriteFrame writes for head followed by
// body, without joining them: body is written where it lies, under the one
// CRC of the two. The length, head and CRC are appended to w's free buffer,
// flushed first when it is too short, so a head that fits the buffer
// allocates nothing.
func WriteFrameParts(w *bufio.Writer, head, body []byte) error {
	if err := reserve(w, 4+len(head)); err != nil {
		return err
	}
	b := binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(len(head)+len(body)))
	b = append(b, head...)
	if _, err := w.Write(b); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	if err := reserve(w, 4); err != nil {
		return err
	}
	crc := crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, body)
	_, err := w.Write(binary.LittleEndian.AppendUint32(w.AvailableBuffer(), crc))
	return err
}

// reserve flushes w when its free buffer is shorter than n bytes.
func reserve(w *bufio.Writer, n int) error {
	if w.Available() < n {
		return w.Flush()
	}
	return nil
}

// ReadFrame reads one CRC-protected frame written by WriteFrame. io.EOF at
// a frame boundary is returned as io.EOF; a torn frame or CRC mismatch is
// an error.
func ReadFrame(br *bufio.Reader, maxLen uint32) ([]byte, error) {
	return readFrameMax(br, maxLen, nil)
}

// FrameBuf is the storage one stream reuses from frame to frame: Read
// fills it with the next frame received, Begin and Send build and write
// the next frame sent. Either side's storage that grew past FrameChunk for
// one large frame is dropped after it, so a stream between frames holds at
// most FrameChunk each way. The zero value is ready to use.
type FrameBuf struct {
	in  []byte
	out bytes.Buffer
}

// Read reads the next frame as ReadFrame does. The payload lies in the
// buffer: it is valid until the next Read.
func (f *FrameBuf) Read(br *bufio.Reader, maxLen uint32) ([]byte, error) {
	payload, err := readFrameMax(br, maxLen, f.in)
	if err == nil {
		f.in = payload[:0]
		if cap(payload) > FrameChunk {
			f.in = nil
		}
	}
	return payload, err
}

// Begin starts the next frame to send and returns the buffer its payload
// is encoded into, behind the four bytes Send fills with its length. A
// second Begin before Send discards what the first one began.
func (f *FrameBuf) Begin() *bytes.Buffer {
	f.out.Reset()
	var length [4]byte
	f.out.Write(length[:])
	return &f.out
}

// Send seals the frame Begin started, with its length and CRC as
// WriteFrame writes them, and writes it to w in one Write.
func (f *FrameBuf) Send(w io.Writer) error {
	sealFrame(&f.out, 0)
	_, err := w.Write(f.out.Bytes())
	if f.out.Cap() > FrameChunk {
		f.out = bytes.Buffer{}
	}
	return err
}

// writeFrame writes len(4) payload crc32(4).
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(crc[:])
	return err
}

// sealFrame makes a frame, as writeFrame writes one, of what buf holds from
// start on: the four bytes there, reserved by the caller, take the length of
// the payload behind them, and the payload's CRC is appended. It lets a
// payload be encoded straight into the buffer it is framed in.
func sealFrame(buf *bytes.Buffer, start int) {
	payload := buf.Bytes()[start+4:]
	binary.LittleEndian.PutUint32(buf.Bytes()[start:], uint32(len(payload)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	buf.Write(crc[:])
}

// readFrame reads one frame, validating length and CRC. io.EOF at a frame
// boundary is returned as io.EOF; mid-frame EOF or CRC mismatch is an error.
func readFrame(br *bufio.Reader) ([]byte, error) {
	return readFrameMax(br, 1<<30, nil)
}

// readFrameMax is readFrame with a caller-chosen payload ceiling, so a wire
// peer cannot make the reader allocate an arbitrary buffer from a bogus
// length header, reading the payload into buf's storage when it fits
// there. maxLen <= 0 selects the persistence default.
func readFrameMax(br *bufio.Reader, maxLen uint32, buf []byte) ([]byte, error) {
	if maxLen == 0 {
		maxLen = 1 << 30
	}
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("store: reading frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxLen {
		return nil, fmt.Errorf("store: implausible frame length %d", n)
	}
	payload, err := readPayload(br, int(n), buf)
	if err != nil {
		return nil, fmt.Errorf("store: reading frame payload: %w", err)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(br, crcb[:]); err != nil {
		return nil, fmt.Errorf("store: reading frame crc: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcb[:]) {
		return nil, fmt.Errorf("store: frame crc mismatch")
	}
	return payload, nil
}

// FrameChunk is how much of a frame's payload is allocated before its bytes
// arrive. A frame up to this size is read into one buffer of its exact
// length; a longer one into a buffer that doubles as its bytes arrive, so a
// length header claiming more than the input holds costs this much, or a
// small multiple of the bytes that did arrive, never the claim. It is also
// the most a reused buffer — a FrameBuf, a pooled response body — keeps
// between uses: storage that grew past it for one large frame or body is
// dropped after it.
const FrameChunk = 256 << 10

// readPayload reads the n bytes of a frame's payload: into buf when it has
// room for them, otherwise into fresh storage.
func readPayload(r io.Reader, n int, buf []byte) ([]byte, error) {
	if n <= cap(buf) {
		buf = buf[:n]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf = make([]byte, min(n, FrameChunk))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	for len(buf) < n {
		grown := make([]byte, min(n, 2*len(buf)))
		copy(grown, buf)
		if _, err := io.ReadFull(r, grown[len(buf):]); err != nil {
			return nil, err
		}
		buf = grown
	}
	return buf, nil
}
