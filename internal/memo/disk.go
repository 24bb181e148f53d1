package memo

// Disk tier: an optional, durable second level under the session cache.
//
// The tier is a single append-only log (cache.log under the cache dir) of
// checksummed records keyed by the same fixed-size Keys as the memory
// tier. The log starts with the magic "dtsecl2\n"; each record is
//
//	[4B payload length][4B CRC32-IEEE of payload][1B space][32B key][value]
//
// with the key in its Key encoding (192-bit digest, 64-bit word) and the
// payload being everything after the CRC. The in-memory index holds one
// Key and one file reference per record, never the canonical bytes the key
// was made from.
//
// Recovery is truncation-tolerant: replay stops at the first torn or
// corrupt record (a kill -9 mid-append leaves exactly that) and truncates
// the file back to the last good byte, so the log stays appendable.
// Duplicate keys are legal — the last record wins, which is what
// sequential appends naturally produce. A log written in the earlier
// dtsecl1 format (string keys) cannot be addressed by digest keys; it is
// reset to an empty dtsecl2 log on open and its bytes are counted as
// truncated. The cache loses those entries; it never answers from them.
//
// Writes are write-behind: Put only enqueues; a single background writer
// appends, coalesces whatever queued meanwhile, then fsyncs once — the
// serving hot path never blocks on disk. A full queue drops the write
// (counted) rather than stall; the memory tier still holds the value.
//
// Reads verify the CRC again at access time, so a bit flipped on disk
// yields a miss (and drops the index entry), never a corrupt value.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

const (
	logName  = "cache.log"
	logMagic = "dtsecl2\n"
	// logMagicV1 is the string-keyed format; such a log is reset on open.
	logMagicV1 = "dtsecl1\n"

	// maxRecordSize bounds one record's payload; a length beyond it during
	// replay is treated as corruption. 64 MiB is far above any rendered
	// response.
	maxRecordSize = 64 << 20

	// recordHeader is [4B payload length][4B CRC32-IEEE of payload]; the
	// payload is [1B space][keyLen key][value].
	recordHeader = 8
	payloadMin   = 1 + keyLen

	// writeQueueLen is the write-behind queue depth; overflow drops the
	// write instead of blocking the hot path.
	writeQueueLen = 1024
)

// DiskStats is the accounting of one disk tier.
type DiskStats struct {
	Records   int   // live index entries (last record per key)
	Replayed  int64 // records recovered at open
	Truncated int64 // torn/corrupt tail bytes dropped at open
	Hits      int64 // Get calls that returned a verified record
	Misses    int64 // Get calls that found nothing usable
	Writes    int64 // records appended by the background writer
	Dropped   int64 // writes lost to a full queue or append failure
	ReadErrs  int64 // records dropped on read (CRC or IO failure)
	Imported  int64 // records received via shard handoff (subset of Writes)
}

type recordRef struct {
	off int64 // file offset of the record header
	n   int   // header + payload length
}

// DiskTier is a disk-backed cache level shared by the keyspaces attached
// to it. Safe for concurrent use; nil receivers are no-ops, the same idiom
// as the nil *Cache.
type DiskTier struct {
	path string
	f    *os.File

	mu    sync.RWMutex                // guards index
	index map[Space]map[Key]recordRef // one map per live keyspace

	writeCh chan diskRecord
	writerD chan struct{} // closed when the background writer exits
	closeMu sync.Mutex    // serializes Put-enqueue against Close
	closed  bool

	end atomic.Int64 // append offset = bytes of verified log

	replayed, truncated, hits, misses, writes, dropped, readErrs, imported atomic.Int64
}

type diskRecord struct {
	sp  Space
	key Key
	val []byte
}

// OpenDiskTier opens (creating if needed) the append-only cache log under
// dir, replays it into an in-memory index, truncates any torn tail, and
// starts the write-behind writer. The caller owns the tier and must Close
// it to flush queued writes.
func OpenDiskTier(dir string) (*DiskTier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("memo: cache dir: %w", err)
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("memo: cache log: %w", err)
	}
	d := &DiskTier{path: path, f: f, index: make(map[Space]map[Key]recordRef, len(Spaces))}
	for _, sp := range Spaces {
		d.index[sp] = make(map[Key]recordRef)
	}
	if err := d.replay(); err != nil {
		f.Close()
		return nil, err
	}
	d.writeCh = make(chan diskRecord, writeQueueLen)
	d.writerD = make(chan struct{})
	go d.writer()
	return d, nil
}

// replay scans the log sequentially, indexing every verified record (last
// write per key wins) and stopping at the first torn or corrupt one; the
// file is truncated back to the last good byte so appends stay readable.
// Every record is read into one buffer, grown to the largest record; the
// index keeps only each record's Key and file reference.
func (d *DiskTier) replay() error {
	st, err := d.f.Stat()
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		return d.startLog()
	}
	r := bufio.NewReader(io.NewSectionReader(d.f, 0, st.Size()))
	var magic [len(logMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("memo: %s is not a cache log", d.path)
	}
	switch string(magic[:]) {
	case logMagic:
	case logMagicV1: // string keys: no digest key can address its records
		d.truncated.Add(st.Size())
		if err := d.f.Truncate(0); err != nil {
			return err
		}
		return d.startLog()
	default:
		return fmt.Errorf("memo: %s is not a cache log", d.path)
	}
	off := int64(len(logMagic))
	var hdr [recordHeader]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break // clean end of log, or a torn header
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n < payloadMin || n > maxRecordSize {
			break
		}
		if int(n) > cap(buf) {
			buf = make([]byte, n)
		}
		payload := buf[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			break // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break // bit rot or a torn rewrite: nothing after it is trusted
		}
		sp, key, _, ok := parsePayload(payload)
		if !ok {
			break
		}
		d.index[sp][key] = recordRef{off: off, n: recordHeader + int(n)}
		off += int64(recordHeader) + int64(n)
		d.replayed.Add(1)
	}
	d.end.Store(off)
	if off < st.Size() {
		d.truncated.Add(st.Size() - off)
		if err := d.f.Truncate(off); err != nil {
			return err
		}
	}
	return nil
}

// startLog writes the magic of an empty log.
func (d *DiskTier) startLog() error {
	if _, err := d.f.WriteAt([]byte(logMagic), 0); err != nil {
		return err
	}
	d.end.Store(int64(len(logMagic)))
	return d.f.Sync()
}

func parsePayload(p []byte) (sp Space, key Key, val []byte, ok bool) {
	if len(p) < payloadMin {
		return 0, Key{}, nil, false
	}
	sp = Space(p[0])
	if !sp.live() {
		return 0, Key{}, nil, false
	}
	return sp, keyFrom(p[1:payloadMin]), p[payloadMin:], true
}

// load reads and re-verifies one indexed record. A record that fails
// verification is dropped from the index (counted in ReadErrs) — the
// caller sees a plain miss.
func (d *DiskTier) load(sp Space, key Key) ([]byte, bool) {
	d.mu.RLock()
	ref, ok := d.index[sp][key]
	d.mu.RUnlock()
	if !ok {
		return nil, false
	}
	buf := make([]byte, ref.n)
	if _, err := d.f.ReadAt(buf, ref.off); err != nil {
		d.dropRef(sp, key, ref)
		return nil, false
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	sum := binary.LittleEndian.Uint32(buf[4:8])
	if int(n) != len(buf)-recordHeader || crc32.ChecksumIEEE(buf[recordHeader:]) != sum {
		d.dropRef(sp, key, ref)
		return nil, false
	}
	rsp, rkey, val, ok := parsePayload(buf[recordHeader:])
	if !ok || rsp != sp || rkey != key {
		d.dropRef(sp, key, ref)
		return nil, false
	}
	return val, true
}

func (d *DiskTier) dropRef(sp Space, key Key, ref recordRef) {
	d.readErrs.Add(1)
	d.mu.Lock()
	if cur, ok := d.index[sp][key]; ok && cur == ref {
		delete(d.index[sp], key)
	}
	d.mu.Unlock()
}

// Get returns the stored value for key, verifying its checksum. Safe on a
// nil tier (always a miss).
func (d *DiskTier) Get(sp Space, key Key) ([]byte, bool) {
	if d == nil {
		return nil, false
	}
	val, ok := d.load(sp, key)
	if ok {
		d.hits.Add(1)
	} else {
		d.misses.Add(1)
	}
	return val, ok
}

// Put queues a record for the background writer; it never blocks. Returns
// false when the record was dropped (tier closed, value beyond the record
// size bound, or queue full). Safe on a nil tier.
func (d *DiskTier) Put(sp Space, key Key, val []byte) bool {
	if d == nil {
		return false
	}
	if payloadMin+len(val) > maxRecordSize {
		d.dropped.Add(1)
		return false
	}
	d.closeMu.Lock()
	defer d.closeMu.Unlock()
	if d.closed {
		return false
	}
	select {
	case d.writeCh <- diskRecord{sp: sp, key: key, val: val}:
		return true
	default:
		d.dropped.Add(1)
		return false
	}
}

// writer is the single background appender: it writes each queued record,
// coalesces whatever arrived meanwhile, then fsyncs once per batch.
func (d *DiskTier) writer() {
	defer close(d.writerD)
	for {
		rec, ok := <-d.writeCh
		if !ok {
			d.f.Sync()
			return
		}
		d.append(rec)
	drain:
		for {
			select {
			case more, ok := <-d.writeCh:
				if !ok {
					d.f.Sync()
					return
				}
				d.append(more)
			default:
				break drain
			}
		}
		d.f.Sync()
	}
}

// append writes one record at the current end offset and publishes it in
// the index only after the write succeeded, so readers can never chase an
// offset that was not fully written. The record is built in place in one
// buffer: header, then the payload the CRC covers.
func (d *DiskTier) append(rec diskRecord) {
	buf := make([]byte, recordHeader, recordHeader+payloadMin+len(rec.val))
	buf = append(buf, byte(rec.sp))
	buf = appendKey(buf, rec.key)
	buf = append(buf, rec.val...)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-recordHeader))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[recordHeader:]))
	off := d.end.Load()
	if _, err := d.f.WriteAt(buf, off); err != nil {
		d.dropped.Add(1)
		return
	}
	d.end.Store(off + int64(len(buf)))
	d.writes.Add(1)
	d.mu.Lock()
	d.index[rec.sp][rec.key] = recordRef{off: off, n: len(buf)}
	d.mu.Unlock()
}

// Range calls fn for every live record of one keyspace (the last write per
// key, checksum-verified; order unspecified) until fn returns false. Shard
// handoff reads the moved keys through it. Safe on a nil tier.
func (d *DiskTier) Range(sp Space, fn func(key Key, val []byte) bool) {
	if d == nil {
		return
	}
	d.mu.RLock()
	keys := make([]Key, 0, len(d.index[sp]))
	for k := range d.index[sp] {
		keys = append(keys, k)
	}
	d.mu.RUnlock()
	for _, k := range keys {
		if v, ok := d.load(sp, k); ok {
			if !fn(k, v) {
				return
			}
		}
	}
}

// Len returns the number of live records in one keyspace.
func (d *DiskTier) Len(sp Space) int {
	if d == nil {
		return 0
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.index[sp])
}

// Path returns the log file path (for logs and tests).
func (d *DiskTier) Path() string {
	if d == nil {
		return ""
	}
	return d.path
}

// Stats returns the tier's accounting. Safe on a nil tier.
func (d *DiskTier) Stats() DiskStats {
	if d == nil {
		return DiskStats{}
	}
	n := 0
	d.mu.RLock()
	for _, m := range d.index {
		n += len(m)
	}
	d.mu.RUnlock()
	return DiskStats{
		Records:   n,
		Replayed:  d.replayed.Load(),
		Truncated: d.truncated.Load(),
		Hits:      d.hits.Load(),
		Misses:    d.misses.Load(),
		Writes:    d.writes.Load(),
		Dropped:   d.dropped.Load(),
		ReadErrs:  d.readErrs.Load(),
		Imported:  d.imported.Load(),
	}
}

// Close stops the writer, flushes every queued record to disk, fsyncs and
// closes the log. Idempotent; safe on a nil tier.
func (d *DiskTier) Close() error {
	if d == nil {
		return nil
	}
	d.closeMu.Lock()
	if d.closed {
		d.closeMu.Unlock()
		return nil
	}
	d.closed = true
	close(d.writeCh)
	d.closeMu.Unlock()
	<-d.writerD
	return d.f.Close()
}

// diskCodec binds a keyspace to a tier with its value encoding.
type diskCodec struct {
	tier *DiskTier
	enc  func(val any) ([]byte, bool)
	dec  func(b []byte) (any, bool)
}

// AttachDisk backs one keyspace with a disk tier: misses consult the tier
// (decoded records are promoted into the memory tier without recomputing)
// and cacheable results are queued to it write-behind. enc may decline a
// value (second result false) to keep it memory-only; dec may decline a
// record it cannot parse, which falls back to compute. Call before the
// cache is used concurrently (like Observe); safe on a nil Cache.
func (c *Cache) AttachDisk(sp Space, d *DiskTier, enc func(val any) ([]byte, bool), dec func(b []byte) (any, bool)) {
	if c == nil || d == nil || enc == nil || dec == nil {
		return
	}
	c.space(sp).disk = &diskCodec{tier: d, enc: enc, dec: dec}
}
