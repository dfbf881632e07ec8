package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Log is the one durable-log primitive: a directory with one file layout
//
//	wal                  EventLog frames appended since the last checkpoint
//	checkpoint-<epoch>/  owner state as of the fence, filled by a write callback
//	checkpoint.meta      one CRC frame: fence seq + epoch
//
// and one protocol. A checkpoint fills a fresh epoch directory, then renames
// checkpoint.meta into place — the single commit point — and only then
// truncates the WAL to continue at fence+1 and sweeps other epochs, so a
// crash anywhere leaves either the previous checkpoint with its full WAL or
// the new one, whose fence makes leftover WAL events skip on replay.
// Recovery (OpenLog) reads the meta, has the owner load the committed epoch,
// replays WAL events above the fence through the owner's apply, stops
// cleanly at a torn or corrupt tail, and re-checkpoints unless the restart
// was clean. The owner supplies only those callbacks; it never sees a file
// name outside the epoch directory it is handed.
//
// Appends are flushed to the OS before they return (surviving a process
// kill); with fsync they, and every checkpoint step in tree → meta → dir
// order, are also fsynced (surviving power loss).
type Log struct {
	dir   string
	fsync bool

	// mu guards the fields below for Stats and NextSeq readers. Append
	// holds it across write+flush(+fsync); a checkpoint runs unlocked (its
	// write callback is caller code) and takes mu only to publish results.
	mu        sync.Mutex
	log       *EventLog
	f         *os.File // nil once closed
	fence     uint64   // events at or below it are in the committed checkpoint
	epoch     uint64   // the committed checkpoint directory
	cpAt      time.Time
	size      int64
	events    int64
	recovered EventReplayStats
}

// LogWALFile is the WAL's name inside a Log directory — exported only for
// crash tests and demos that tear it; owners never need it.
const LogWALFile = "wal"

const (
	logMetaName      = "checkpoint.meta"
	logMetaMax       = 2 * binary.MaxVarintLen64 // a larger meta frame is corrupt, not worth allocating
	logEpochPrefix   = "checkpoint-"
	logFrameOverhead = 8 // 4-byte length + 4-byte CRC around every frame
)

// LogStats is a point-in-time view of a Log.
type LogStats struct {
	WALSizeBytes int64
	WALEvents    int64 // appended since the WAL was last truncated
	NextSeq      uint64
	Fence        uint64    // highest sequence number the committed checkpoint covers
	Epoch        uint64    // the committed checkpoint's; every checkpoint raises it, 0 before the first
	CheckpointAt time.Time // zero until a checkpoint has committed
}

// OpenLog recovers the state kept in dir and opens it for appends: load
// restores the owner from the committed epoch directory (skipped in a fresh
// directory), apply receives every WAL event above the fence in order, and
// write re-checkpoints the recovered state unless the restart was clean (a
// checkpoint exists and the WAL held nothing new). An error from load,
// apply or write fails the open with the committed checkpoint and the WAL
// untouched.
func OpenLog(dir string, fsync bool, load func(cpDir string) error,
	apply func(seq uint64, kind byte, payload []byte) error, write func(cpDir string) error) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating log dir: %w", err)
	}
	l := &Log{dir: dir, fsync: fsync}
	hasCheckpoint, err := l.readMeta()
	if err != nil {
		return nil, err
	}
	if hasCheckpoint {
		if err := load(l.epochDir(l.epoch)); err != nil {
			return nil, fmt.Errorf("store: loading checkpoint: %w", err)
		}
	}
	if f, err := os.Open(filepath.Join(dir, LogWALFile)); err == nil {
		l.recovered, err = ReplayEventLog(f, l.fence, apply)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("store: wal replay: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: opening wal: %w", err)
	}
	last := max(l.fence, l.recovered.LastSeq)
	if !hasCheckpoint || l.recovered.Applied > 0 || l.recovered.Truncated {
		if err := l.Checkpoint(last, write); err != nil {
			return nil, err
		}
		return l, nil // the checkpoint restarted the WAL itself
	}
	l.sweep() // a clean restart still clears what a crashed checkpoint left
	if err := l.truncateWAL(last + 1); err != nil {
		return nil, err
	}
	return l, nil
}

// Append writes one event and returns its sequence number; the event is
// flushed (and, with fsync, synced) when Append returns.
func (l *Log) Append(kind byte, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, err := l.log.Append(kind, payload)
	if err != nil {
		return 0, err
	}
	if err := l.log.Flush(); err != nil {
		return 0, err
	}
	if l.fsync {
		if err := l.f.Sync(); err != nil {
			return 0, err
		}
	}
	l.events++
	// Tracked arithmetically to keep fstat off the hot write path.
	var tmp [binary.MaxVarintLen64]byte
	l.size += int64(logFrameOverhead + binary.PutUvarint(tmp[:], seq) + 1 + len(payload))
	return seq, nil
}

// NextSeq returns the sequence number the next Append will use.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.NextSeq()
}

// Stats snapshots the log's counters.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LogStats{WALSizeBytes: l.size, WALEvents: l.events, NextSeq: l.log.NextSeq(),
		Fence: l.fence, Epoch: l.epoch, CheckpointAt: l.cpAt}
}

// Recovered reports what OpenLog replayed from the WAL.
func (l *Log) Recovered() EventReplayStats { return l.recovered }

// Checkpoint commits the owner's state as of fence and truncates the WAL
// to continue at fence+1. The caller guarantees that write captures every
// event up to fence and that no Append or other Checkpoint runs
// concurrently (Stats and NextSeq may). fence is the last sequence number
// write captures: NextSeq()-1 for an owner that logs its every change.
// When write fails nothing is committed and the WAL is untouched.
func (l *Log) Checkpoint(fence uint64, write func(cpDir string) error) error {
	for _, step := range l.checkpointSteps(fence, write) {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// checkpointSteps is the protocol, in commit order. A checkpoint runs all
// of it; a crash runs a prefix — which is how the crash suite walks it, so
// every filesystem effect belongs inside exactly one step.
func (l *Log) checkpointSteps(fence uint64, write func(cpDir string) error) []func() error {
	epoch := l.epoch + 1
	return []func() error{
		func() error { return l.writeEpoch(epoch, write) },
		func() error { return l.stageMeta(fence, epoch) },
		func() error { return l.commitMeta(fence, epoch) },
		func() error { return l.truncateWAL(fence + 1) },
		func() error { l.sweep(); return nil },
	}
}

// Close flushes and releases the WAL. It does not checkpoint.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	l.f = nil
	return l.log.Close()
}

// HasCheckpoint reports whether dir holds a committed checkpoint, i.e.
// whether OpenLog will call load and replace the owner's current state —
// callers use it to skip building state a recovery would discard.
func HasCheckpoint(dir string) bool {
	ok, err := (&Log{dir: dir}).readMeta()
	return ok && err == nil
}

func (l *Log) epochDir(epoch uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%06d", logEpochPrefix, epoch))
}

// readMeta loads the commit record into l. ok=false means no checkpoint
// ever committed; a meta that exists but fails its CRC is an error, never
// an empty store.
func (l *Log) readMeta() (ok bool, err error) {
	path := filepath.Join(l.dir, logMetaName)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()
	frame, err := readFrameMax(bufio.NewReader(f), logMetaMax, nil)
	if err != nil {
		return false, fmt.Errorf("store: corrupt %s: %v", path, err)
	}
	rd := bytes.NewReader(frame)
	fence, err1 := binary.ReadUvarint(rd)
	epoch, err2 := binary.ReadUvarint(rd)
	if err1 != nil || err2 != nil {
		return false, fmt.Errorf("store: corrupt %s", path)
	}
	l.fence, l.epoch = fence, epoch
	if st, err := f.Stat(); err == nil {
		l.cpAt = st.ModTime()
	}
	return true, nil
}

// writeEpoch has the owner fill a fresh epoch directory. The epoch must be
// durable before the meta that names it.
func (l *Log) writeEpoch(epoch uint64, write func(cpDir string) error) error {
	cpDir := l.epochDir(epoch)
	// A crashed or failed earlier attempt may have left files under the same
	// name; the committed state must come from this write alone.
	if err := os.RemoveAll(cpDir); err != nil {
		return err
	}
	if err := os.Mkdir(cpDir, 0o755); err != nil {
		return fmt.Errorf("store: creating checkpoint dir: %w", err)
	}
	if err := write(cpDir); err != nil {
		return err
	}
	if l.fsync {
		return syncTree(cpDir)
	}
	return nil
}

// stageMeta writes the commit record beside its final name. With fsync
// its data is made durable BEFORE the rename — a rename whose directory
// entry survives a power cut while the file data does not would leave a
// corrupt commit record that bricks every open.
func (l *Log) stageMeta(fence, epoch uint64) error {
	var buf bytes.Buffer
	PutUvarint(&buf, fence)
	PutUvarint(&buf, epoch)
	f, err := os.Create(filepath.Join(l.dir, logMetaName+".tmp"))
	if err != nil {
		return err
	}
	err = writeFrame(f, buf.Bytes())
	if err == nil && l.fsync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// commitMeta is the commit point: the rename makes the new fence and epoch
// authoritative, and must be durable before the WAL it fences is truncated.
func (l *Log) commitMeta(fence, epoch uint64) error {
	meta := filepath.Join(l.dir, logMetaName)
	if err := os.Rename(meta+".tmp", meta); err != nil {
		return err
	}
	l.mu.Lock()
	l.fence, l.epoch, l.cpAt = fence, epoch, time.Now()
	l.mu.Unlock()
	if l.fsync {
		return syncPath(l.dir)
	}
	return nil
}

// truncateWAL replaces the WAL (creating it on first use) with an empty
// one continuing at nextSeq.
func (l *Log) truncateWAL(nextSeq uint64) error {
	if l.log != nil {
		if err := l.log.Close(); err != nil {
			return err
		}
	}
	f, err := os.Create(filepath.Join(l.dir, LogWALFile))
	if err != nil {
		return fmt.Errorf("store: creating wal: %w", err)
	}
	lg, err := NewEventLogAt(f, nextSeq)
	if err == nil {
		err = lg.Flush()
	}
	if err == nil && l.fsync {
		// Appends fsync the file's data, but the file itself only survives
		// a power failure once its directory entry is durable.
		if err = f.Sync(); err == nil {
			err = syncPath(l.dir)
		}
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("store: starting wal: %w", err)
	}
	l.mu.Lock()
	l.log, l.f, l.size, l.events = lg, f, int64(len(eventMagic)), 0
	l.mu.Unlock()
	return nil
}

// sweep best-effort removes every epoch directory except the committed
// one: superseded epochs and uncommitted ones left by crashed checkpoints.
func (l *Log) sweep() {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	keep := filepath.Base(l.epochDir(l.epoch))
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), logEpochPrefix) && e.Name() != keep {
			os.RemoveAll(filepath.Join(l.dir, e.Name()))
		}
	}
}

// syncPath opens path read-only and fsyncs it.
func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncTree fsyncs every regular file directly under dir, then dir itself
// (epoch directories are flat).
func syncTree(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			if err := syncPath(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return syncPath(dir)
}
