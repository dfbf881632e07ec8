package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Persistence formats: a collection is checkpointed to a snapshot stream,
// and mutations between checkpoints go to an event log (see Log for the
// directory protocol that ties the two together). Frames are CRC-protected
// so a torn tail write is detected and replay stops cleanly at the last
// good frame.

const (
	snapshotMagic = "DTSNAP1\n"
	eventMagic    = "DTEVTL1\n"
)

// WriteSnapshot serializes the collection: header, namespace, document
// count, then (id, doc) frames, each CRC-protected. Every entry — id, frame
// header, document, CRC — is assembled in one reused buffer, so a checkpoint
// allocates the same few buffers whatever the collection holds.
func (c *Collection) WriteSnapshot(w io.Writer) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := writeFrame(bw, []byte(c.ns)); err != nil {
		return err
	}
	var count [8]byte
	binary.LittleEndian.PutUint64(count[:], uint64(len(c.docs)))
	if _, err := bw.Write(count[:]); err != nil {
		return err
	}
	var entry bytes.Buffer
	for _, id := range c.order {
		if id == 0 { // tombstoned slot
			continue
		}
		entry.Reset()
		var idLen [8 + 4]byte // the frame's length is filled in by sealFrame
		binary.LittleEndian.PutUint64(idLen[:8], uint64(id))
		entry.Write(idLen[:])
		PutDoc(&entry, c.docs[id])
		sealFrame(&entry, 8)
		if _, err := bw.Write(entry.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSnapshot loads a snapshot into a fresh collection with the given
// extent size. Indexes are not part of the snapshot; re-create them with
// EnsureIndex after loading.
func ReadSnapshot(r io.Reader, extentSize int64) (*Collection, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("store: reading snapshot magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("store: bad snapshot magic %q", magic)
	}
	nsBytes, err := readFrame(br)
	if err != nil {
		return nil, fmt.Errorf("store: reading namespace: %w", err)
	}
	c := newCollection(string(nsBytes), extentSize)
	var count [8]byte
	if _, err := io.ReadFull(br, count[:]); err != nil {
		return nil, fmt.Errorf("store: reading count: %w", err)
	}
	n := binary.LittleEndian.Uint64(count[:])
	for i := uint64(0); i < n; i++ {
		var idb [8]byte
		if _, err := io.ReadFull(br, idb[:]); err != nil {
			return nil, fmt.Errorf("store: reading doc %d id: %w", i, err)
		}
		id := int64(binary.LittleEndian.Uint64(idb[:]))
		frame, err := readFrame(br)
		if err != nil {
			return nil, fmt.Errorf("store: reading doc %d: %w", i, err)
		}
		doc, err := DecodeDoc(frame)
		if err != nil {
			return nil, fmt.Errorf("store: decoding doc %d: %w", i, err)
		}
		c.docs[id] = doc
		c.appendOrderLocked(id)
		c.charge(doc.SizeBytes())
		if id >= c.nextID {
			c.nextID = id + 1
		}
	}
	return c, nil
}

// ApplyReplay inserts-or-replaces a document under a specific id — the
// operation a replication follower applies for shipped insert and update
// events, preserving the primary's id assignment so reads against either
// replica return the same documents.
func (c *Collection) ApplyReplay(id int64, doc *Doc) { c.applyReplay(id, doc) }

// applyReplay inserts-or-replaces a document under a specific id.
func (c *Collection) applyReplay(id int64, doc *Doc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.docs[id]; ok {
		for _, ix := range c.indexes {
			ix.remove(id, old)
		}
		for _, tx := range c.text {
			tx.remove(id, old)
		}
		c.docs[id] = doc
		c.charge(doc.SizeBytes() - old.SizeBytes())
		for _, ix := range c.indexes {
			ix.insert(id, doc)
		}
		for _, tx := range c.text {
			tx.insert(id, doc)
		}
		return
	}
	c.docs[id] = doc
	c.appendOrderLocked(id)
	c.charge(doc.SizeBytes())
	if id >= c.nextID {
		c.nextID = id + 1
	}
	for _, ix := range c.indexes {
		ix.insert(id, doc)
	}
	for _, tx := range c.text {
		tx.insert(id, doc)
	}
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
// covered by a checkpoint. Log's write-ahead file and the cluster
// replication feed are both EventLogs.
type EventLog struct {
	w       *bufio.Writer
	closer  io.Closer
	nextSeq uint64
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
// sequence number. The event is durable only after Flush.
func (l *EventLog) Append(kind byte, payload []byte) (uint64, error) {
	seq := l.nextSeq
	var seqb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(seqb[:], seq)
	frame := make([]byte, 0, n+1+len(payload))
	frame = append(frame, seqb[:n]...)
	frame = append(frame, kind)
	frame = append(frame, payload...)
	if err := writeFrame(l.w, frame); err != nil {
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
// cluster wire protocol.
func WriteFrame(w io.Writer, payload []byte) error { return writeFrame(w, payload) }

// ReadFrame reads one CRC-protected frame written by WriteFrame. io.EOF at
// a frame boundary is returned as io.EOF; a torn frame or CRC mismatch is
// an error.
func ReadFrame(br *bufio.Reader, maxLen uint32) ([]byte, error) {
	return readFrameMax(br, maxLen)
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
	return readFrameMax(br, 1<<30)
}

// readFrameMax is readFrame with a caller-chosen payload ceiling, so a wire
// peer cannot make the reader allocate an arbitrary buffer from a bogus
// length header. maxLen <= 0 selects the persistence default.
func readFrameMax(br *bufio.Reader, maxLen uint32) ([]byte, error) {
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
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
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
