// Package qorlog is the durable, crash-safe result log of the ChatLS
// serving stack: an append-only binary on-disk log of
//
//	(design content hash, script hash, library fingerprint) → QoR record
//
// entries in the style of ninja's build log. Every synthesis result the
// daemon or the experiment harness computes is appended under a
// collision-resistant content key; on the next start the log is replayed to
// repopulate the in-memory caches, so a crash or deploy no longer throws
// away hours of Pass@k evaluation work.
//
// The format is built to survive crashes mid-write:
//
//   - an 8-byte header (magic + version) identifies the file;
//   - each record is length-framed and carries a CRC-32C of its payload;
//   - Open performs a single-pass scan that accepts every fully-written
//     record and truncates the file at the first torn or corrupt one
//     instead of failing — the recovered-record and dropped-byte counts are
//     surfaced in RecoveryStats for the daemon's metrics;
//   - recompaction (dropping entries superseded by later appends for the
//     same key) writes a fresh file beside the log and swaps it in with an
//     atomic rename, so a crash at any step leaves either the old or the
//     new log fully intact.
//
// All writes go through an optional resilience.DiskInjector so short
// writes, fsync failures, and mid-write kills are exercised by seeded
// tests, not just trusted.
package qorlog

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/resilience"
)

// Key is the content address of one logged result: a SHA-256 over every
// input that shapes the QoR (library fingerprint, design sources, script).
// Derive with KeyOf so all producers frame identically.
type Key [sha256.Size]byte

// KeyOf hashes the parts with length framing, so no two distinct part
// sequences share a byte stream. Callers pass, in order: the library
// fingerprint, each (file name, file content) pair, and the script text.
func KeyOf(parts ...string) Key {
	h := sha256.New()
	// Parts go in through chunk rather than as []byte(p), which would copy
	// each one whole (a design's source, on every key).
	var chunk [256]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(chunk[:8], uint64(len(p)))
		h.Write(chunk[:8])
		for len(p) > 0 {
			n := copy(chunk[:], p)
			h.Write(chunk[:n])
			p = p[n:]
		}
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Record is one logged quality-of-results summary — the same fields as
// synth.QoR, duplicated here so the log stays a leaf package the way
// ninja's build log is independent of its build graph.
type Record struct {
	Design     string
	Period     float64
	WNS        float64
	CPS        float64
	TNS        float64
	Area       float64
	Leakage    float64
	Cells      int
	Seq        int
	Violations int
}

const (
	// magic identifies a QoR log file; the final byte is the format version.
	magic      = "QoRLOG\x00"
	logVersion = 1
	headerLen  = len(magic) + 1

	// frameLen is the per-record framing: payload length + CRC-32C.
	frameLen = 8
	// maxPayload bounds a record's framed length; a corrupt length field
	// beyond it is treated as a torn tail rather than allocated.
	maxPayload = 1 << 16
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms the daemon runs on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// RecoveryStats reports what Open's recovery scan found.
type RecoveryStats struct {
	// Recovered counts fully-written records replayed from the log
	// (including entries later superseded by appends for the same key).
	Recovered int
	// DroppedBytes is how many trailing bytes were truncated because they
	// formed a torn or corrupt record (0 on a clean log). A file whose
	// header itself was unreadable drops its entire length.
	DroppedBytes int64
	// Reset reports that the header was missing or unrecognized and the
	// file was reinitialized from scratch.
	Reset bool
}

// Options tunes a Log. The zero value selects the defaults.
type Options struct {
	// Inject, when set, faults the log's file operations (tests only).
	Inject *resilience.DiskInjector
	// RecompactRatio is the dead-entry fraction (superseded records over
	// total records) beyond which an append triggers recompaction.
	// 0 selects 0.5; negative disables automatic recompaction.
	RecompactRatio float64
	// RecompactMin is the minimum total record count before automatic
	// recompaction is considered (0 selects 64).
	RecompactMin int
}

func (o Options) withDefaults() Options {
	if o.RecompactRatio == 0 {
		o.RecompactRatio = 0.5
	}
	if o.RecompactMin <= 0 {
		o.RecompactMin = 64
	}
	return o
}

// Log is the on-disk append log plus its in-memory replay index. Not safe
// for concurrent use; Store adds the locking (and the serving-path cache).
type Log struct {
	path string
	opts Options
	f    *os.File
	// offset is the end of the last fully-written record — the append
	// position, and the truncation point used to rewind a failed append.
	offset int64
	// index holds the live (latest) record per key; order remembers each
	// key's first appearance so recompaction output is deterministic.
	index map[Key]Record
	order []Key
	// total counts records in the file, including superseded ones.
	total int
	// broken marks a log whose file position could not be restored after a
	// failed append; every later append fails fast.
	broken bool

	stats         RecoveryStats
	appends       int64
	recompactions int64
}

// Open opens (creating if absent) the log at path and replays it. Recovery
// never fails on record-level corruption: torn or corrupt trailing records
// are truncated and counted in Stats(). The returned error is reserved for
// real I/O problems (permissions, unreadable directory).
func Open(path string, opts Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("qorlog: open %s: %w", path, err)
	}
	l := &Log{
		path:  path,
		opts:  opts.withDefaults(),
		f:     f,
		index: make(map[Key]Record),
	}
	if err := l.replay(); err != nil {
		f.Close()
		return nil, err
	}
	// A stale temp file from a recompaction interrupted before its rename
	// is dead weight; the rename never happened, so the log itself is whole.
	os.Remove(path + ".tmp")
	return l, nil
}

// replay scans the file once, loading every fully-written record and
// truncating the first torn or corrupt one (and everything after it).
func (l *Log) replay() error {
	size, err := l.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("qorlog: seek %s: %w", l.path, err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("qorlog: seek %s: %w", l.path, err)
	}

	if size == 0 {
		return l.writeHeader()
	}
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(l.f, hdr); err != nil ||
		string(hdr[:len(magic)]) != magic || hdr[len(magic)] != logVersion {
		// Not a (current-version) QoR log. Reinitialize: the data is
		// unreadable either way, and recovery must yield an appendable log.
		l.stats.Reset = true
		l.stats.DroppedBytes = size
		if err := l.f.Truncate(0); err != nil {
			return fmt.Errorf("qorlog: reset %s: %w", l.path, err)
		}
		if _, err := l.f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("qorlog: seek %s: %w", l.path, err)
		}
		return l.writeHeader()
	}

	l.offset = int64(headerLen)
	var frame [frameLen]byte
	buf := make([]byte, 0, 256)
	for {
		if _, err := io.ReadFull(l.f, frame[:]); err != nil {
			break // clean EOF or torn frame header: stop either way
		}
		n := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if n == 0 || n > maxPayload {
			break
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(l.f, buf); err != nil {
			break
		}
		if crc32.Checksum(buf, crcTable) != sum {
			break
		}
		key, rec, ok := decodeRecord(buf)
		if !ok {
			break
		}
		l.remember(key, rec)
		l.offset += int64(frameLen) + int64(n)
		l.stats.Recovered++
	}

	if l.offset < size {
		l.stats.DroppedBytes = size - l.offset
		if err := l.f.Truncate(l.offset); err != nil {
			return fmt.Errorf("qorlog: truncate torn tail of %s: %w", l.path, err)
		}
	}
	if _, err := l.f.Seek(l.offset, io.SeekStart); err != nil {
		return fmt.Errorf("qorlog: seek %s: %w", l.path, err)
	}
	return nil
}

// remember folds one replayed or appended record into the index.
func (l *Log) remember(key Key, rec Record) {
	if _, seen := l.index[key]; !seen {
		l.order = append(l.order, key)
	}
	l.index[key] = rec
	l.total++
}

func (l *Log) writeHeader() error {
	hdr := append([]byte(magic), logVersion)
	if err := l.write(l.f, hdr); err != nil {
		return fmt.Errorf("qorlog: write header of %s: %w", l.path, err)
	}
	l.offset = int64(headerLen)
	return nil
}

// write performs one fault-injectable write to f.
func (l *Log) write(f *os.File, p []byte) error {
	allow, ferr := l.opts.Inject.Write(len(p))
	if allow > len(p) {
		allow = len(p)
	}
	var werr error
	if allow > 0 {
		var n int
		n, werr = f.Write(p[:allow])
		if werr == nil && n < allow {
			werr = io.ErrShortWrite
		}
	}
	if ferr != nil {
		return ferr
	}
	if werr != nil {
		return werr
	}
	if allow < len(p) {
		return io.ErrShortWrite
	}
	return nil
}

// sync performs one fault-injectable fsync of f.
func (l *Log) sync(f *os.File) error {
	if err := l.opts.Inject.Sync(); err != nil {
		return err
	}
	return f.Sync()
}

// Get returns the live record for key.
func (l *Log) Get(key Key) (Record, bool) {
	rec, ok := l.index[key]
	return rec, ok
}

// Len returns the number of live (distinct-key) records.
func (l *Log) Len() int { return len(l.index) }

// Dead returns the number of superseded records still occupying file space.
func (l *Log) Dead() int { return l.total - len(l.index) }

// Stats returns the recovery scan's findings.
func (l *Log) Stats() RecoveryStats { return l.stats }

// Appends returns the number of records appended in this session.
func (l *Log) Appends() int64 { return l.appends }

// Recompactions returns how many recompaction rewrites completed.
func (l *Log) Recompactions() int64 { return l.recompactions }

// Append writes one record. On a write failure the log rewinds (truncates)
// to the last fully-written record so a retry starts from a clean tail; if
// the rewind itself fails the log is marked broken and every later append
// fails fast with the original error. The in-memory index is only updated
// on success.
func (l *Log) Append(key Key, rec Record) error {
	if l.broken {
		return fmt.Errorf("qorlog: %s: log broken by earlier unrecoverable write failure", l.path)
	}
	payload := encodeRecord(key, rec)
	frame := make([]byte, frameLen, frameLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	frame = append(frame, payload...)

	if err := l.write(l.f, frame); err != nil {
		// Rewind so the torn bytes cannot masquerade as a record prefix for
		// the next append. A killed writer is the one case where no rewind
		// runs — the simulated process is dead, and the torn tail it leaves
		// is exactly what recovery on reopen handles.
		if l.opts.Inject.Killed() {
			l.broken = true
		} else if terr := l.f.Truncate(l.offset); terr != nil {
			l.broken = true
		} else if _, serr := l.f.Seek(l.offset, io.SeekStart); serr != nil {
			l.broken = true
		}
		return fmt.Errorf("qorlog: append to %s: %w", l.path, err)
	}
	l.offset += int64(len(frame))
	l.remember(key, rec)
	l.appends++

	if r := l.opts.RecompactRatio; r > 0 && l.total >= l.opts.RecompactMin &&
		float64(l.Dead()) > r*float64(l.total) {
		// Best-effort: a failed recompaction leaves the old log intact and
		// appends continue against it.
		l.recompact()
	}
	return nil
}

// Sync makes appended records durable.
func (l *Log) Sync() error {
	return l.sync(l.f)
}

// Close syncs and closes the file. The log is unusable afterwards.
func (l *Log) Close() error {
	serr := l.sync(l.f)
	cerr := l.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Recompact rewrites the log with only live records, reclaiming the space
// of superseded entries. The rewrite is crash-safe at every step: the new
// file is fully written and fsynced beside the log, then swapped in with an
// atomic rename; a crash before the rename leaves the old log untouched, a
// crash after it leaves the compact log fully valid.
func (l *Log) Recompact() error {
	return l.recompact()
}

func (l *Log) recompact() error {
	tmpPath := l.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("qorlog: recompact %s: %w", l.path, err)
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := l.write(tmp, append([]byte(magic), logVersion)); err != nil {
		return cleanup(fmt.Errorf("qorlog: recompact %s: %w", l.path, err))
	}
	offset := int64(headerLen)
	for _, k := range l.order {
		rec, ok := l.index[k]
		if !ok {
			continue
		}
		payload := encodeRecord(k, rec)
		frame := make([]byte, frameLen, frameLen+len(payload))
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
		frame = append(frame, payload...)
		if err := l.write(tmp, frame); err != nil {
			return cleanup(fmt.Errorf("qorlog: recompact %s: %w", l.path, err))
		}
		offset += int64(len(frame))
	}
	if err := l.sync(tmp); err != nil {
		return cleanup(fmt.Errorf("qorlog: recompact %s: %w", l.path, err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("qorlog: recompact %s: %w", l.path, err)
	}
	if err := os.Rename(tmpPath, l.path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("qorlog: recompact %s: %w", l.path, err)
	}
	syncDir(l.path)

	// The old descriptor points at the unlinked inode; swap to the new file.
	nf, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		// The compact log is safely on disk but this process cannot append
		// to it anymore; mark broken rather than keep writing to a ghost.
		l.broken = true
		return fmt.Errorf("qorlog: reopen after recompact %s: %w", l.path, err)
	}
	if _, err := nf.Seek(offset, io.SeekStart); err != nil {
		nf.Close()
		l.broken = true
		return fmt.Errorf("qorlog: reopen after recompact %s: %w", l.path, err)
	}
	l.f.Close()
	l.f = nf
	l.offset = offset
	l.total = len(l.index)
	l.recompactions++
	return nil
}

// syncDir fsyncs the directory holding path so the rename itself is
// durable. Best-effort: some filesystems refuse directory fsync.
func syncDir(path string) {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// encodeRecord serializes key+record:
//
//	key     [32]byte
//	design  uvarint length + bytes
//	period, wns, cps, tns, area, leakage  8-byte LE float bits each
//	cells, seq, violations  uvarint each
func encodeRecord(key Key, rec Record) []byte {
	buf := make([]byte, 0, len(key)+len(rec.Design)+8*7+6)
	buf = append(buf, key[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Design)))
	buf = append(buf, rec.Design...)
	for _, v := range [...]float64{rec.Period, rec.WNS, rec.CPS, rec.TNS, rec.Area, rec.Leakage} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.AppendUvarint(buf, uint64(rec.Cells))
	buf = binary.AppendUvarint(buf, uint64(rec.Seq))
	buf = binary.AppendUvarint(buf, uint64(rec.Violations))
	return buf
}

// decodeRecord parses an encodeRecord payload. ok is false when the bytes
// do not round-trip exactly (short fields or trailing garbage), which the
// recovery scan treats like a checksum mismatch.
func decodeRecord(buf []byte) (Key, Record, bool) {
	var key Key
	var rec Record
	if len(buf) < len(key) {
		return key, rec, false
	}
	copy(key[:], buf)
	buf = buf[len(key):]

	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n > uint64(len(buf)-sz) {
		return key, rec, false
	}
	buf = buf[sz:]
	rec.Design = string(buf[:n])
	buf = buf[n:]

	floats := [...]*float64{&rec.Period, &rec.WNS, &rec.CPS, &rec.TNS, &rec.Area, &rec.Leakage}
	for _, p := range floats {
		if len(buf) < 8 {
			return key, rec, false
		}
		*p = math.Float64frombits(binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
	}
	ints := [...]*int{&rec.Cells, &rec.Seq, &rec.Violations}
	for _, p := range ints {
		v, sz := binary.Uvarint(buf)
		if sz <= 0 || v > math.MaxInt32 {
			return key, rec, false
		}
		*p = int(v)
		buf = buf[sz:]
	}
	if len(buf) != 0 {
		return key, rec, false
	}
	return key, rec, true
}
