package memo

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// --- the crash/corruption corpus ---
//
// testdata/cachecorpus holds committed log files covering every recovery
// class the replay path claims to handle: clean logs, duplicate keys, torn
// headers and payloads (what kill -9 mid-append leaves), flipped bits, an
// absurd length field, a foreign file. The files are generated — run
//
//	go test ./internal/memo -run TestRegenCacheCorpus -regen-corpus
//
// to rewrite them; TestCacheCorpusCommitted pins the committed bytes to the
// generators so the corpus cannot drift silently.

var regenCorpus = flag.Bool("regen-corpus", false, "rewrite testdata/cachecorpus from the generators")

const corpusDir = "testdata/cachecorpus"

// corpusRecord builds one well-formed log record under the key tkey(key).
func corpusRecord(sp Space, key, val string) []byte {
	return corpusRecordKey(sp, tkey(key), val)
}

// corpusRecordKey builds one well-formed log record.
func corpusRecordKey(sp Space, key Key, val string) []byte {
	payload := appendKey([]byte{byte(sp)}, key)
	return framed(append(payload, val...))
}

// corpusRecordV1 builds one record of the string-keyed dtsecl1 format:
// the payload was [1B space][4B key length][key][value].
func corpusRecordV1(sp Space, key, val string) []byte {
	payload := binary.LittleEndian.AppendUint32([]byte{byte(sp)}, uint32(len(key)))
	payload = append(append(payload, key...), val...)
	return framed(payload)
}

// framed prefixes a payload with its record header.
func framed(payload []byte) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// corpusCase is one committed log with its expected recovery outcome.
type corpusCase struct {
	data      []byte
	openErr   bool                        // OpenDiskTier must fail
	replayed  int64                       // records recovered
	truncated int64                       // torn/corrupt tail bytes dropped
	live      map[Space]map[string]string // expected index after replay
}

func corpusCases() map[string]corpusCase {
	r1 := corpusRecord(Schedule, "alpha", "value-alpha")
	r2 := corpusRecord(Requests, "beta", "value-beta")
	r3 := corpusRecord(Schedule, "gamma", string(bytes.Repeat([]byte{'g'}, 600)))
	valid := append([]byte(logMagic), r1...)
	valid = append(valid, r2...)
	valid = append(valid, r3...)
	validLive := map[Space]map[string]string{
		Schedule: {"alpha": "value-alpha", "gamma": string(bytes.Repeat([]byte{'g'}, 600))},
		Requests: {"beta": "value-beta"},
	}

	dup := append([]byte(logMagic), corpusRecord(Requests, "dup", "first")...)
	dup = append(dup, corpusRecord(Requests, "dup", "second")...)
	dup = append(dup, corpusRecord(Requests, "dup", "final")...)
	dup = append(dup, corpusRecord(Schedule, "other", "ok")...)

	tornHeader := append(append([]byte{}, valid...), 0x01, 0x02, 0x03, 0x04, 0x05)

	tornPayload := append([]byte{}, valid...)
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 100) // claims 100 payload bytes...
	binary.LittleEndian.PutUint32(hdr[4:8], 0xdeadbeef)
	tornPayload = append(tornPayload, hdr[:]...)
	tornPayload = append(tornPayload, bytes.Repeat([]byte{0xaa}, 40)...) // ...delivers 40

	flipTail := append([]byte{}, valid...)
	flipTail[len(flipTail)-300] ^= 0x01 // inside r3's payload: CRC must catch it

	flipMid := append([]byte{}, valid...)
	flipMid[len(logMagic)+len(r1)+recordHeader+1] ^= 0x01 // r2's first key byte

	badLen := append([]byte(logMagic), r1...)
	var badHdr [recordHeader]byte
	binary.LittleEndian.PutUint32(badHdr[0:4], maxRecordSize+1)
	badLen = append(badLen, badHdr[:]...)
	badLen = append(badLen, bytes.Repeat([]byte{0xbb}, 10)...)

	// A log written before keys were digests: the whole file is dropped.
	v1 := append([]byte(logMagicV1), corpusRecordV1(Schedule, "alpha", "value-alpha")...)
	v1 = append(v1, corpusRecordV1(Requests, "beta", "value-beta")...)

	return map[string]corpusCase{
		"valid.log": {data: valid, replayed: 3, live: validLive},
		"duplicates.log": {data: dup, replayed: 4, live: map[Space]map[string]string{
			Requests: {"dup": "final"},
			Schedule: {"other": "ok"},
		}},
		"torn_header.log":  {data: tornHeader, replayed: 3, truncated: 5, live: validLive},
		"torn_payload.log": {data: tornPayload, replayed: 3, truncated: recordHeader + 40, live: validLive},
		"bitflip_tail.log": {data: flipTail, replayed: 2, truncated: int64(len(r3)), live: map[Space]map[string]string{
			Schedule: {"alpha": "value-alpha"},
			Requests: {"beta": "value-beta"},
		}},
		"bitflip_mid.log": {data: flipMid, replayed: 1, truncated: int64(len(r2) + len(r3)), live: map[Space]map[string]string{
			Schedule: {"alpha": "value-alpha"},
		}},
		"badlen.log": {data: badLen, replayed: 1, truncated: recordHeader + 10, live: map[Space]map[string]string{
			Schedule: {"alpha": "value-alpha"},
		}},
		"magiconly.log": {data: []byte(logMagic)},
		"empty.log":     {data: []byte{}},
		"badmagic.log":  {data: []byte("NOTACACHELOG\n"), openErr: true},
		"v1.log":        {data: v1, truncated: int64(len(v1))},
	}
}

func TestRegenCacheCorpus(t *testing.T) {
	if !*regenCorpus {
		t.Skip("pass -regen-corpus to rewrite testdata/cachecorpus")
	}
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, c := range corpusCases() {
		if err := os.WriteFile(filepath.Join(corpusDir, name), c.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheCorpusCommitted pins the committed corpus files byte-for-byte to
// the generators, so an edit to either side fails loudly instead of testing
// stale bytes.
func TestCacheCorpusCommitted(t *testing.T) {
	cases := corpusCases()
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatalf("%v (run: go test ./internal/memo -run TestRegenCacheCorpus -regen-corpus)", err)
	}
	for _, e := range entries {
		if _, ok := cases[e.Name()]; !ok {
			t.Errorf("unexpected corpus file %s (not generated by corpusCases)", e.Name())
		}
	}
	for name, c := range cases {
		got, err := os.ReadFile(filepath.Join(corpusDir, name))
		if err != nil {
			t.Fatalf("%v (run: go test ./internal/memo -run TestRegenCacheCorpus -regen-corpus)", err)
		}
		if !bytes.Equal(got, c.data) {
			t.Errorf("%s: committed bytes differ from generator (rerun -regen-corpus)", name)
		}
	}
}

// stageCorpus copies one corpus file into a fresh dir as the live log —
// replay truncates torn tails in place, and the committed testdata must
// never be mutated by a test run.
func stageCorpus(t *testing.T, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCacheCorpusReplay drives every corpus file through open/replay and
// checks the recovery contract: exactly the expected records survive, torn
// tails are truncated (not fatal), every survivor re-verifies on Get, and
// the recovered log accepts and persists new appends.
func TestCacheCorpusReplay(t *testing.T) {
	names := make([]string, 0)
	cases := corpusCases()
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := cases[name]
		t.Run(name, func(t *testing.T) {
			dir := stageCorpus(t, c.data)
			d, err := OpenDiskTier(dir)
			if c.openErr {
				if err == nil {
					d.Close()
					t.Fatal("OpenDiskTier accepted a non-log file")
				}
				return
			}
			if err != nil {
				t.Fatalf("OpenDiskTier: %v", err)
			}
			st := d.Stats()
			if st.Replayed != c.replayed || st.Truncated != c.truncated {
				t.Fatalf("replayed %d truncated %d, want %d / %d",
					st.Replayed, st.Truncated, c.replayed, c.truncated)
			}
			wantLive := 0
			for sp, kv := range c.live {
				wantLive += len(kv)
				for key, val := range kv {
					got, ok := d.Get(sp, tkey(key))
					if !ok || string(got) != val {
						t.Fatalf("Get(%v, %q) = %q, %v; want %q", sp, key, got, ok, val)
					}
				}
			}
			if st.Records != wantLive {
				t.Fatalf("Records = %d, want %d", st.Records, wantLive)
			}
			// The recovered log stays appendable, and the append survives a
			// second replay alongside the recovered records.
			if !d.Put(Requests, tkey("post-recovery"), []byte("pr")) {
				t.Fatal("Put on recovered log refused")
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d2, err := OpenDiskTier(dir)
			if err != nil {
				t.Fatalf("reopen after recovery+append: %v", err)
			}
			defer d2.Close()
			if v, ok := d2.Get(Requests, tkey("post-recovery")); !ok || string(v) != "pr" {
				t.Fatal("record appended after recovery was lost")
			}
			for sp, kv := range c.live {
				for key, val := range kv {
					if got, ok := d2.Get(sp, tkey(key)); !ok || string(got) != val {
						t.Fatalf("after reopen: Get(%v, %q) = %q, %v; want %q", sp, key, got, ok, val)
					}
				}
			}
		})
	}
}

// --- tier behavior ---

func TestDiskTierPutGetAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskTier(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if !d.Put(Requests, tkey(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))) {
			t.Fatalf("Put %d refused", i)
		}
	}
	d.Put(Requests, tkey("k3"), []byte("v3-rewritten")) // duplicate key: last wins
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Writes != 21 || st.Dropped != 0 {
		t.Fatalf("writes %d dropped %d, want 21 / 0", st.Writes, st.Dropped)
	}

	d2, err := OpenDiskTier(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	st = d2.Stats()
	if st.Replayed != 21 || st.Records != 20 || st.Truncated != 0 {
		t.Fatalf("reopen stats %+v, want 21 replayed, 20 live, 0 truncated", st)
	}
	if v, ok := d2.Get(Requests, tkey("k3")); !ok || string(v) != "v3-rewritten" {
		t.Fatalf("Get(k3) = %q, %v; want the last write", v, ok)
	}
	if v, ok := d2.Get(Requests, tkey("k7")); !ok || string(v) != "v7" {
		t.Fatalf("Get(k7) = %q, %v", v, ok)
	}
	if _, ok := d2.Get(Schedule, tkey("k7")); ok {
		t.Fatal("key leaked across keyspaces")
	}
}

// TestDiskTierReadTimeCorruptionIsAMiss: a bit flipped after replay (disk
// rot under a running daemon) is caught by the read-time CRC — the Get is a
// miss, the index entry is dropped, and no corrupt value escapes.
func TestDiskTierReadTimeCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskTier(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.Put(Requests, tkey("key"), []byte("pristine-value"))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDiskTier(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len(Requests) != 1 {
		t.Fatalf("Len = %d, want 1", d2.Len(Requests))
	}
	// Flip a value byte behind the tier's back.
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	valOff := int64(len(logMagic) + recordHeader + payloadMin)
	buf := []byte{0}
	if _, err := f.ReadAt(buf, valOff); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0x04
	if _, err := f.WriteAt(buf, valOff); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if v, ok := d2.Get(Requests, tkey("key")); ok {
		t.Fatalf("Get returned %q from a corrupted record", v)
	}
	st := d2.Stats()
	if st.ReadErrs != 1 || st.Records != 0 {
		t.Fatalf("stats %+v, want 1 read error and the record dropped", st)
	}
	if _, ok := d2.Get(Requests, tkey("key")); ok {
		t.Fatal("dropped record came back")
	}
}

func TestDiskTierOversizeRecordDropped(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskTier(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Put(Requests, tkey("huge"), make([]byte, maxRecordSize)) {
		t.Fatal("Put accepted a record beyond maxRecordSize")
	}
	if st := d.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
}

func TestDiskTierNilSafe(t *testing.T) {
	var d *DiskTier
	if _, ok := d.Get(Schedule, tkey("k")); ok {
		t.Fatal("nil Get hit")
	}
	if d.Put(Schedule, tkey("k"), nil) {
		t.Fatal("nil Put accepted")
	}
	d.Range(Schedule, func(Key, []byte) bool { t.Fatal("nil Range called fn"); return false })
	if d.Len(Schedule) != 0 || d.Path() != "" {
		t.Fatal("nil Len/Path nonzero")
	}
	if (d.Stats() != DiskStats{}) {
		t.Fatal("nil Stats nonzero")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskTierCloseIdempotentAndPutAfterClose(t *testing.T) {
	d, err := OpenDiskTier(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d.Put(Requests, tkey("k"), []byte("v")) {
		t.Fatal("Put accepted after Close")
	}
}

func TestDiskTierRange(t *testing.T) {
	d, err := OpenDiskTier(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Put(Requests, tkey("a"), []byte("1"))
	d.Put(Requests, tkey("b"), []byte("2"))
	d.Put(Schedule, tkey("c"), []byte("3"))
	// Writes are write-behind; poll until the background writer has indexed
	// them (bounded, so a stuck writer fails instead of hanging).
	deadline := time.Now().Add(5 * time.Second)
	for d.Len(Requests) < 2 || d.Len(Schedule) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("writer did not index the queued records")
		}
		time.Sleep(time.Millisecond)
	}
	got := map[Key]string{}
	d.Range(Requests, func(k Key, v []byte) bool { got[k] = string(v); return true })
	if len(got) != 2 || got[tkey("a")] != "1" || got[tkey("b")] != "2" {
		t.Fatalf("Range(Requests) = %v", got)
	}
	n := 0
	d.Range(Requests, func(Key, []byte) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Range ignored fn returning false (visited %d)", n)
	}
}

// --- cache <-> disk integration ---

func byteCodec() (func(any) ([]byte, bool), func([]byte) (any, bool)) {
	enc := func(v any) ([]byte, bool) { b, ok := v.([]byte); return b, ok }
	dec := func(b []byte) (any, bool) { return b, true }
	return enc, dec
}

// TestAttachDiskPromotion: a fresh process's cache miss is answered from
// the disk tier without recomputing, the record is promoted into the memory
// tier, and the stats tell the story (DiskHits, then a plain memory hit).
func TestAttachDiskPromotion(t *testing.T) {
	dir := t.TempDir()
	enc, dec := byteCodec()

	d, err := OpenDiskTier(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Requests)
	c.AttachDisk(Requests, d, enc, dec)
	computes := 0
	v := c.Do(Requests, tkey("k"), func() (any, bool) { computes++; return []byte("hello"), true })
	if string(v.([]byte)) != "hello" || computes != 1 {
		t.Fatalf("first Do = %q (computes %d)", v, computes)
	}
	if st := c.Stats(Requests); st.DiskWrites != 1 {
		t.Fatalf("DiskWrites = %d, want 1", st.DiskWrites)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new cache over the same log.
	d2, err := OpenDiskTier(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	c2 := New(Requests)
	c2.AttachDisk(Requests, d2, enc, dec)
	v2 := c2.Do(Requests, tkey("k"), func() (any, bool) {
		t.Error("compute ran despite a disk record")
		return nil, false
	})
	if string(v2.([]byte)) != "hello" {
		t.Fatalf("disk-tier Do = %q, want hello", v2)
	}
	st := c2.Stats(Requests)
	if st.DiskHits != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats %+v, want 1 disk hit under 1 memory miss", st)
	}
	// Promoted: the next Do is a pure memory hit, no disk read.
	before := d2.Stats().Hits
	c2.Do(Requests, tkey("k"), func() (any, bool) { t.Error("recompute after promotion"); return nil, false })
	if st := c2.Stats(Requests); st.Hits != 1 {
		t.Fatalf("after promotion: Hits = %d, want 1", st.Hits)
	}
	if after := d2.Stats().Hits; after != before {
		t.Fatalf("promotion did not stick: disk hits %d -> %d", before, after)
	}
}

// TestAttachDiskEncDeclines: values the codec declines stay memory-only.
func TestAttachDiskEncDeclines(t *testing.T) {
	d, err := OpenDiskTier(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := New(Schedule)
	enc := func(any) ([]byte, bool) { return nil, false }
	_, dec := byteCodec()
	c.AttachDisk(Schedule, d, enc, dec)
	c.Do(Schedule, tkey("k"), func() (any, bool) { return []byte("v"), true })
	if st := c.Stats(Schedule); st.DiskWrites != 0 {
		t.Fatalf("DiskWrites = %d for a declined value", st.DiskWrites)
	}
}
