package live

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"

	"repro/internal/datagen"
	"repro/internal/record"
	"repro/internal/store"
)

// WAL event kinds.
const (
	evText    byte = 1 // a batch of web-text fragments
	evRecords byte = 2 // a batch of structured records from one source
)

// membersName is the file of the fused view's members beside the store
// snapshots in a checkpoint directory. A checkpoint written before members
// were saved holds fused.snap instead, consolidated records that must not be
// read as members; it has no members.snap, so Open refuses it.
const membersName = "members.snap"

// decodeEvent decodes one WAL event into the event the applier queues.
func decodeEvent(kind byte, payload []byte) (event, error) {
	ev := event{kind: kind, size: len(payload)}
	var err error
	switch kind {
	case evText:
		ev.frags, err = decodeText(payload)
	case evRecords:
		ev.source, ev.recs, err = decodeRecords(payload)
	default:
		err = fmt.Errorf("live: unknown event kind %d", kind)
	}
	return ev, err
}

// encodeText serializes a fragment batch: count, then (url, text) pairs.
func encodeText(frags []datagen.Fragment) []byte {
	var buf bytes.Buffer
	store.PutUvarint(&buf, uint64(len(frags)))
	for _, f := range frags {
		store.PutString(&buf, f.URL)
		store.PutString(&buf, f.Text)
	}
	return buf.Bytes()
}

func decodeText(payload []byte) ([]datagen.Fragment, error) {
	r := bytes.NewReader(payload)
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("live: text event count: %w", err)
	}
	// Each fragment takes at least two bytes, so the count sizes the slice
	// only as far as the payload backs it.
	frags := make([]datagen.Fragment, 0, min(n, uint64(r.Len())/2))
	for i := uint64(0); i < n; i++ {
		url, err := store.GetString(r)
		if err != nil {
			return nil, fmt.Errorf("live: text event url: %w", err)
		}
		text, err := store.GetString(r)
		if err != nil {
			return nil, fmt.Errorf("live: text event body: %w", err)
		}
		frags = append(frags, datagen.Fragment{URL: url, Text: text})
	}
	return frags, nil
}

// encodeRecords serializes a record batch: source name, count, then per
// record (source, id, doc bytes) — the doc codec carries the typed fields.
func encodeRecords(source string, recs []*record.Record) []byte {
	var buf, doc bytes.Buffer
	store.PutString(&buf, source)
	store.PutUvarint(&buf, uint64(len(recs)))
	for _, r := range recs {
		encodeRecordTo(&buf, &doc, r)
	}
	return buf.Bytes()
}

func decodeRecords(payload []byte) (string, []*record.Record, error) {
	r := bytes.NewReader(payload)
	source, err := store.GetString(r)
	if err != nil {
		return "", nil, fmt.Errorf("live: record event source: %w", err)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", nil, fmt.Errorf("live: record event count: %w", err)
	}
	// Each record takes at least three bytes.
	recs := make([]*record.Record, 0, min(n, uint64(r.Len())/3))
	for i := uint64(0); i < n; i++ {
		rec, err := decodeRecordFrom(r)
		if err != nil {
			return "", nil, fmt.Errorf("live: record event %d: %w", i, err)
		}
		recs = append(recs, rec)
	}
	return source, recs, nil
}

// encodeRecordTo writes one flat record as (source, id, doc bytes), the doc
// the encoding of the record's scalar fields so value kinds round-trip. doc
// is the caller's scratch buffer, reused from record to record.
func encodeRecordTo(buf, doc *bytes.Buffer, r *record.Record) {
	store.PutString(buf, r.Source)
	store.PutString(buf, r.ID)
	doc.Reset()
	store.PutRecord(doc, r)
	store.PutBytes(buf, doc.Bytes())
}

func decodeRecordFrom(r *bytes.Reader) (*record.Record, error) {
	source, err := store.GetString(r)
	if err != nil {
		return nil, err
	}
	id, err := store.GetString(r)
	if err != nil {
		return nil, err
	}
	data, err := store.GetBytes(r)
	if err != nil {
		return nil, err
	}
	d, err := store.AdoptDoc(data)
	if err != nil {
		return nil, err
	}
	rec := d.ToRecord()
	rec.Source = source
	rec.ID = id
	return rec, nil
}

// Members checkpoint file: one event per member of the fused view, in
// position order, reusing the event-log CRC framing.

func saveMembers(path string, recs []*record.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("live: creating members checkpoint: %w", err)
	}
	lg, err := store.NewEventLog(f)
	if err != nil {
		f.Close()
		return err
	}
	var buf, doc bytes.Buffer
	for _, r := range recs {
		buf.Reset() // Append has written the payload when it returns
		encodeRecordTo(&buf, &doc, r)
		if _, err := lg.Append(evRecords, buf.Bytes()); err != nil {
			f.Close()
			return err
		}
	}
	if err := lg.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadMembers(path string) ([]*record.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*record.Record
	stats, err := store.ReplayEventLog(f, 0, func(_ uint64, _ byte, payload []byte) error {
		rec, err := decodeRecordFrom(bytes.NewReader(payload))
		if err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if stats.Truncated {
		// A committed checkpoint is written and fsynced in full, so a torn
		// frame here is real corruption — fail loudly rather than serving
		// a silently shrunken fused view.
		return nil, fmt.Errorf("live: members checkpoint %s is truncated", path)
	}
	return recs, nil
}
